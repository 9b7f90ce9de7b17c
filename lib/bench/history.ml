(* Versioned per-commit bench history rows, the tolerant reader, and the
   counter-based regression gate.  See history.mli. *)

module Json = Nnsmith_telemetry.Json

type row = {
  hr_schema : int;
  hr_commit : string;
  hr_parent : string option;
  hr_experiment : string;
  hr_workload : string option;
  hr_tests_per_sec : float;
  hr_digest : string;
  hr_counters : Metrics.counters option;
}

let schema_version = 2

(* ------------------------------------------------------------------ *)
(* Commit identity                                                     *)

let git_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then None else Some line
  with _ -> None

let git_commit = lazy (git_line "git rev-parse --short HEAD 2>/dev/null")
let git_parent = lazy (git_line "git rev-parse --short HEAD^ 2>/dev/null")

let make_row ?counters ?workload ~experiment ~tests_per_sec ~digest () =
  {
    hr_schema = schema_version;
    hr_commit = Option.value ~default:"unknown" (Lazy.force git_commit);
    hr_parent = Lazy.force git_parent;
    hr_experiment = experiment;
    hr_workload = workload;
    hr_tests_per_sec = tests_per_sec;
    hr_digest = digest;
    hr_counters = counters;
  }

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)

let row_to_json r =
  let opt k f v = Option.to_list (Option.map (fun x -> (k, f x)) v) in
  Json.Obj
    (("schema", Json.Num (float_of_int r.hr_schema))
     :: ("commit", Json.Str r.hr_commit)
     :: (opt "parent" (fun p -> Json.Str p) r.hr_parent
        @ [
            ("experiment", Json.Str r.hr_experiment);
            ("tests_per_sec", Json.Num r.hr_tests_per_sec);
            ("digest", Json.Str r.hr_digest);
          ]
        @ opt "workload" (fun w -> Json.Str w) r.hr_workload
        @ opt "counters" Metrics.to_json r.hr_counters))

let row_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let num k = Option.bind (Json.member k j) Json.to_float in
  match (str "experiment", num "tests_per_sec") with
  | Some experiment, Some tps ->
      Some
        {
          hr_schema =
            (match Option.bind (Json.member "schema" j) Json.to_int with
            | Some v -> v
            | None -> 1);
          hr_commit = Option.value ~default:"unknown" (str "commit");
          hr_parent = str "parent";
          hr_experiment = experiment;
          hr_workload = str "workload";
          hr_tests_per_sec = tps;
          hr_digest = Option.value ~default:"" (str "digest");
          hr_counters =
            Option.bind (Json.member "counters" j) Metrics.of_json;
        }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Tolerant reader                                                     *)

type read_result = {
  rr_rows : row list;
  rr_bad_lines : int;
  rr_torn_tail : bool;
}

let read path =
  if not (Sys.file_exists path) then
    { rr_rows = []; rr_bad_lines = 0; rr_torn_tail = false }
  else begin
    let ic = open_in_bin path in
    let lines =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let out = ref [] in
          (try
             while true do
               out := input_line ic :: !out
             done
           with End_of_file -> ());
          List.rev !out)
    in
    let lines = List.filter (fun l -> String.trim l <> "") lines in
    let n = List.length lines in
    let rows = ref [] and bad = ref 0 and torn = ref false in
    List.iteri
      (fun i line ->
        let final = i = n - 1 in
        match Json.parse line with
        | Error _ ->
            (* an incomplete final line is a torn tail (writer killed
               mid-append), not corruption; interior garbage is counted *)
            if final then torn := true else incr bad
        | Ok j -> (
            match row_of_json j with
            | Some r -> rows := r :: !rows
            | None -> incr bad))
      lines;
    { rr_rows = List.rev !rows; rr_bad_lines = !bad; rr_torn_tail = !torn }
  end

(* ------------------------------------------------------------------ *)
(* Append + latest.json rewrite                                        *)

let append ~dir row =
  if not (Sys.file_exists dir) then
    (try Unix.mkdir dir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let history = Filename.concat dir "history.jsonl" in
  let latest = Filename.concat dir "latest.json" in
  let line = Json.to_string (row_to_json row) in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 history in
  output_string oc (line ^ "\n");
  close_out oc;
  (* latest.json: one row per experiment, current commit only — a new
     commit's first experiment resets the file *)
  let keep =
    List.filter
      (fun r ->
        r.hr_commit = row.hr_commit && r.hr_experiment <> row.hr_experiment)
      (read latest).rr_rows
  in
  let oc = open_out latest in
  List.iter
    (fun r -> output_string oc (Json.to_string (row_to_json r) ^ "\n"))
    keep;
  output_string oc (line ^ "\n");
  close_out oc

(* ------------------------------------------------------------------ *)
(* The regression gate                                                 *)

let alloc_tolerance = 0.02

type status =
  [ `Ok | `Regressed of string list | `Skipped of string ]

type verdict = {
  v_experiment : string;
  v_workload : string option;
  v_status : status;
  v_notes : string list;
}

let pct x = 100. *. x

let compare_rows ~baseline ~current =
  let notes = ref [] and failures = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* wall-clock: informational only, never gates *)
  let tps0 = baseline.hr_tests_per_sec and tps1 = current.hr_tests_per_sec in
  note "wall-clock (advisory): %.2f -> %.2f tests/sec (%+.1f%%)" tps0 tps1
    (pct ((tps1 -. tps0) /. Float.max 1e-9 tps0));
  (match (baseline.hr_counters, current.hr_counters) with
  | Some b, Some c ->
      List.iter
        (fun (k, vb, vc) ->
          (* a counter present on only one side is a gate failure too:
             instrumentation changes must re-baseline by committing the
             new row, exactly like a value change *)
          fail "work counter %s: %d -> %d" k vb vc)
        (Metrics.work_diff b c);
      let a0 = Metrics.alloc_words b and a1 = Metrics.alloc_words c in
      let rel = (a1 -. a0) /. Float.max 1. a0 in
      if rel > alloc_tolerance then
        fail "allocation words: %.0f -> %.0f (%+.2f%%, tolerance %.0f%%)" a0
          a1 (pct rel) (pct alloc_tolerance)
      else if rel < -.alloc_tolerance then
        (* a fall never fails, but the gate keeps measuring growth from the
           old level until the lower row is committed *)
        note
          "allocation words: %.0f -> %.0f (%+.2f%%, a fall past the %.0f%% \
           tolerance: re-record this row)"
          a0 a1 (pct rel) (pct alloc_tolerance)
      else
        note "allocation words: %.0f -> %.0f (%+.2f%%, within %.0f%%)" a0 a1
          (pct rel) (pct alloc_tolerance);
      if baseline.hr_digest <> "" && current.hr_digest <> ""
         && baseline.hr_digest <> current.hr_digest
      then note "digest changed: %s -> %s" baseline.hr_digest current.hr_digest
  | _ -> note "no counters on both rows; wall-clock advisory only");
  (!failures, List.rev !notes)

let regress ?known rows =
  (* group chronologically by experiment, preserving first-seen order *)
  let order = ref [] in
  let by_exp = Hashtbl.create 8 in
  List.iter
    (fun r ->
      if not (Hashtbl.mem by_exp r.hr_experiment) then
        order := r.hr_experiment :: !order;
      Hashtbl.replace by_exp r.hr_experiment
        (r
        :: Option.value ~default:[] (Hashtbl.find_opt by_exp r.hr_experiment)))
    rows;
  List.rev_map
    (fun exp ->
      (* rows newest-first *)
      let rows = Option.value ~default:[] (Hashtbl.find_opt by_exp exp) in
      let current = List.hd rows in
      let earlier = List.tl rows in
      let verdict status notes =
        {
          v_experiment = exp;
          v_workload = current.hr_workload;
          v_status = status;
          v_notes = notes;
        }
      in
      match known with
      | Some names when not (List.mem exp names) ->
          verdict
            (`Skipped "experiment no longer exists; row ignored (warning)")
            []
      | _ -> (
          (* a row stamped with the current row's commit is a re-run of the
             same code, never the committed baseline it must be gated on *)
          let comparable =
            match current.hr_workload with
            | None -> []
            | Some _ ->
                List.filter
                  (fun r ->
                    r.hr_workload = current.hr_workload
                    && r.hr_commit <> current.hr_commit)
                  earlier
          in
          (* prefer the newest baseline that carries counters when the
             current row does; earlier-era rows can't gate counters *)
          let baseline =
            match current.hr_counters with
            | Some _ -> (
                match
                  List.find_opt (fun r -> r.hr_counters <> None) comparable
                with
                | Some r -> Some r
                | None -> List.nth_opt comparable 0)
            | None -> List.nth_opt comparable 0
          in
          match baseline with
          | None ->
              verdict
                (`Skipped
                  (if current.hr_workload = None then
                     "row has no workload key (legacy schema); cannot compare"
                   else
                     "no row from an earlier commit with the same workload"))
                []
          | Some baseline -> (
              let failures, notes = compare_rows ~baseline ~current in
              match failures with
              | [] -> verdict `Ok notes
              | fs -> verdict (`Regressed (List.rev fs)) notes)))
    !order
