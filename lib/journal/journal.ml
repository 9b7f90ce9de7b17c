(** Append-only campaign journal: the durable, crash-safe record of a
    fuzzing run.  Every campaign driver emits a stream of structured events
    — config at start, per-shard heartbeats with monotonic sequence
    numbers, bug discoveries with reducer stats, coverage deltas, a final
    summary — as one JSON object per line.  The writer lives on the
    spawning domain only (the same single-writer discipline as the corpus
    sink), each event is flushed as a complete line, and the reader
    tolerates a torn final line, so a campaign killed mid-write loses at
    most the event being written.  This is the substrate for the live
    [--progress] view, the static HTML dashboard, and (eventually) the
    resumable campaign daemon. *)

module Json = Nnsmith_telemetry.Json
module Tel = Nnsmith_telemetry.Telemetry
open Json.Syntax

(* ------------------------------------------------------------------ *)
(* Event schema                                                        *)

type budget = B_tests of int | B_time_ms of float

type reducer = {
  rd_attempts : int;
  rd_accepted : int;
  rd_initial : int;
  rd_final : int;
  rd_ms : float;
}

type event =
  | Start of {
      s_at_ms : float;
      s_kind : string;  (* fuzz | coverage | hunt | campaign | ... *)
      s_systems : string list;
      s_generator : string;
      s_root_seed : int;
      s_jobs : int;
      s_budget : budget;
    }
  | Heartbeat of {
      h_worker : int;
      h_seq : int;  (* per-worker, strictly increasing *)
      h_at_ms : float;
      h_tests : int;  (* cumulative for this worker *)
      h_verdicts : (string * int) list;  (* cumulative, sorted *)
      h_cov_total : int;
      h_cov_pass : int;
      h_cov_universe : int;
    }
  | Bug of {
      b_at_ms : float;
      b_key : string;
      b_system : string;
      b_verdict : string;
      b_case : string;
      b_nodes : int;
      b_count : int;  (* hits of this dedup key so far, this one included *)
      b_new : bool;  (* false: duplicate of an already-saved case *)
      b_reducer : reducer option;
    }
  | Coverage of {
      c_at_ms : float;
      c_tests : int;
      c_total : int;
      c_pass : int;
    }
  | Op_stats of {
      o_at_ms : float;
      o_ops : (string * (string * int) list) list;
          (* op kind -> verdict kind -> count; both levels sorted *)
    }
  | Dropped of { d_at_ms : float; d_count : int }
  | Shard_done of {
      sd_at_ms : float;
      sd_worker : int;
      sd_tests : int;  (* tests this shard completed over the campaign *)
      sd_last_index : int;  (* highest global index the shard ran; -1 if none *)
    }
  | Worker_crash of {
      wc_at_ms : float;
      wc_worker : int;
      wc_index : int;  (* global test index the worker died on *)
      wc_seed : int;  (* derived seed of that index *)
      wc_cause : string;  (* "exit 66" | "signal 9" | "heartbeat timeout" ... *)
      wc_restarts : int;  (* restarts of this shard so far, this one included *)
    }
  | Resume of {
      rs_at_ms : float;
      rs_applied : int;  (* checkpoint high-water mark: indices [0, applied) *)
      rs_tests : int;  (* campaign test budget *)
      rs_shards : int;
    }
  | Summary of {
      f_at_ms : float;
      f_tests : int;
      f_tests_per_sec : float;
      f_verdicts : (string * int) list;
      f_failures : int;  (* distinct failure dedup-keys *)
      f_saved : int;
      f_dups : int;
      f_cov_total : int;
      f_cov_pass : int;
      f_dropped : int;
    }

let now_ms = Tel.now_ms

(* ------------------------------------------------------------------ *)
(* JSON encode/decode (hand-rolled like the telemetry and corpus
   schemas; the "ev" discriminator comes first so journals grep well).  *)

let budget_to_json = function
  | B_tests n -> Json.Obj [ ("tests", Json.Num (float_of_int n)) ]
  | B_time_ms ms -> Json.Obj [ ("time_ms", Json.Num ms) ]

let budget_of_json j =
  match Option.bind (Json.member "tests" j) Json.to_int with
  | Some n -> Ok (B_tests n)
  | None -> (
      match Option.bind (Json.member "time_ms" j) Json.to_float with
      | Some ms -> Ok (B_time_ms ms)
      | None -> Error "budget without tests or time_ms")

let reducer_to_json r =
  Json.Obj
    [
      ("attempts", Json.Num (float_of_int r.rd_attempts));
      ("accepted", Json.Num (float_of_int r.rd_accepted));
      ("initial_nodes", Json.Num (float_of_int r.rd_initial));
      ("final_nodes", Json.Num (float_of_int r.rd_final));
      ("ms", Json.Num r.rd_ms);
    ]

let reducer_of_json j =
  let* rd_attempts = Json.int_field j "attempts" in
  let* rd_accepted = Json.int_field j "accepted" in
  let* rd_initial = Json.int_field j "initial_nodes" in
  let* rd_final = Json.int_field j "final_nodes" in
  let* rd_ms = Json.float_field j "ms" in
  Ok { rd_attempts; rd_accepted; rd_initial; rd_final; rd_ms }

let to_json = function
  | Start s ->
      Json.Obj
        [
          ("ev", Json.Str "start");
          ("at_ms", Json.Num s.s_at_ms);
          ("kind", Json.Str s.s_kind);
          ("systems", Json.strings_to_json s.s_systems);
          ("generator", Json.Str s.s_generator);
          ("root_seed", Json.Num (float_of_int s.s_root_seed));
          ("jobs", Json.Num (float_of_int s.s_jobs));
          ("budget", budget_to_json s.s_budget);
        ]
  | Heartbeat h ->
      Json.Obj
        [
          ("ev", Json.Str "heartbeat");
          ("worker", Json.Num (float_of_int h.h_worker));
          ("seq", Json.Num (float_of_int h.h_seq));
          ("at_ms", Json.Num h.h_at_ms);
          ("tests", Json.Num (float_of_int h.h_tests));
          ("verdicts", Json.counts_to_json h.h_verdicts);
          ("cov_total", Json.Num (float_of_int h.h_cov_total));
          ("cov_pass", Json.Num (float_of_int h.h_cov_pass));
          ("cov_universe", Json.Num (float_of_int h.h_cov_universe));
        ]
  | Bug b ->
      Json.Obj
        [
          ("ev", Json.Str "bug");
          ("at_ms", Json.Num b.b_at_ms);
          ("dedup_key", Json.Str b.b_key);
          ("system", Json.Str b.b_system);
          ("verdict", Json.Str b.b_verdict);
          ("case", Json.Str b.b_case);
          ("nodes", Json.Num (float_of_int b.b_nodes));
          ("count", Json.Num (float_of_int b.b_count));
          ("new", Json.Bool b.b_new);
          ( "reduction",
            match b.b_reducer with
            | None -> Json.Null
            | Some r -> reducer_to_json r );
        ]
  | Coverage c ->
      Json.Obj
        [
          ("ev", Json.Str "coverage");
          ("at_ms", Json.Num c.c_at_ms);
          ("tests", Json.Num (float_of_int c.c_tests));
          ("cov_total", Json.Num (float_of_int c.c_total));
          ("cov_pass", Json.Num (float_of_int c.c_pass));
        ]
  | Op_stats o ->
      Json.Obj
        [
          ("ev", Json.Str "op_stats");
          ("at_ms", Json.Num o.o_at_ms);
          ("ops", Json.ops_to_json o.o_ops);
        ]
  | Dropped d ->
      Json.Obj
        [
          ("ev", Json.Str "dropped");
          ("at_ms", Json.Num d.d_at_ms);
          ("count", Json.Num (float_of_int d.d_count));
        ]
  | Shard_done sd ->
      Json.Obj
        [
          ("ev", Json.Str "shard_done");
          ("at_ms", Json.Num sd.sd_at_ms);
          ("worker", Json.Num (float_of_int sd.sd_worker));
          ("tests", Json.Num (float_of_int sd.sd_tests));
          ("last_index", Json.Num (float_of_int sd.sd_last_index));
        ]
  | Worker_crash wc ->
      Json.Obj
        [
          ("ev", Json.Str "worker_crash");
          ("at_ms", Json.Num wc.wc_at_ms);
          ("worker", Json.Num (float_of_int wc.wc_worker));
          ("index", Json.Num (float_of_int wc.wc_index));
          ("seed", Json.Num (float_of_int wc.wc_seed));
          ("cause", Json.Str wc.wc_cause);
          ("restarts", Json.Num (float_of_int wc.wc_restarts));
        ]
  | Resume rs ->
      Json.Obj
        [
          ("ev", Json.Str "resume");
          ("at_ms", Json.Num rs.rs_at_ms);
          ("applied", Json.Num (float_of_int rs.rs_applied));
          ("tests", Json.Num (float_of_int rs.rs_tests));
          ("shards", Json.Num (float_of_int rs.rs_shards));
        ]
  | Summary f ->
      Json.Obj
        [
          ("ev", Json.Str "summary");
          ("at_ms", Json.Num f.f_at_ms);
          ("tests", Json.Num (float_of_int f.f_tests));
          ("tests_per_sec", Json.Num f.f_tests_per_sec);
          ("verdicts", Json.counts_to_json f.f_verdicts);
          ("failures", Json.Num (float_of_int f.f_failures));
          ("saved", Json.Num (float_of_int f.f_saved));
          ("dups", Json.Num (float_of_int f.f_dups));
          ("cov_total", Json.Num (float_of_int f.f_cov_total));
          ("cov_pass", Json.Num (float_of_int f.f_cov_pass));
          ("dropped", Json.Num (float_of_int f.f_dropped));
        ]

let of_json j : (event, string) result =
  let* ev = Json.str_field j "ev" in
  let* at_ms = Json.float_field j "at_ms" in
  match ev with
  | "start" ->
      let* s_kind = Json.str_field j "kind" in
      let* s_systems = Json.strings_of_json "systems" j in
      let* s_generator = Json.str_field j "generator" in
      let* s_root_seed = Json.int_field j "root_seed" in
      let* s_jobs = Json.int_field j "jobs" in
      let* s_budget =
        match Json.member "budget" j with
        | Some b -> budget_of_json b
        | None -> Error "missing budget"
      in
      Ok
        (Start
           {
             s_at_ms = at_ms;
             s_kind;
             s_systems;
             s_generator;
             s_root_seed;
             s_jobs;
             s_budget;
           })
  | "heartbeat" ->
      let* h_worker = Json.int_field j "worker" in
      let* h_seq = Json.int_field j "seq" in
      let* h_tests = Json.int_field j "tests" in
      let* h_verdicts = Json.counts_of_json "verdicts" j in
      let* h_cov_total = Json.int_field j "cov_total" in
      let* h_cov_pass = Json.int_field j "cov_pass" in
      let* h_cov_universe = Json.int_field j "cov_universe" in
      Ok
        (Heartbeat
           {
             h_worker;
             h_seq;
             h_at_ms = at_ms;
             h_tests;
             h_verdicts;
             h_cov_total;
             h_cov_pass;
             h_cov_universe;
           })
  | "bug" ->
      let* b_key = Json.str_field j "dedup_key" in
      let* b_system = Json.str_field j "system" in
      let* b_verdict = Json.str_field j "verdict" in
      let* b_case = Json.str_field j "case" in
      let* b_nodes = Json.int_field j "nodes" in
      let* b_count = Json.int_field j "count" in
      let b_new =
        match Json.member "new" j with Some (Json.Bool b) -> b | _ -> true
      in
      let* b_reducer =
        match Json.member "reduction" j with
        | None | Some Json.Null -> Ok None
        | Some r ->
            let* r = reducer_of_json r in
            Ok (Some r)
      in
      Ok
        (Bug
           {
             b_at_ms = at_ms;
             b_key;
             b_system;
             b_verdict;
             b_case;
             b_nodes;
             b_count;
             b_new;
             b_reducer;
           })
  | "coverage" ->
      let* c_tests = Json.int_field j "tests" in
      let* c_total = Json.int_field j "cov_total" in
      let* c_pass = Json.int_field j "cov_pass" in
      Ok (Coverage { c_at_ms = at_ms; c_tests; c_total; c_pass })
  | "op_stats" ->
      let* o_ops = Json.ops_of_json "ops" j in
      Ok (Op_stats { o_at_ms = at_ms; o_ops })
  | "dropped" ->
      let* d_count = Json.int_field j "count" in
      Ok (Dropped { d_at_ms = at_ms; d_count })
  | "shard_done" ->
      let* sd_worker = Json.int_field j "worker" in
      let* sd_tests = Json.int_field j "tests" in
      let* sd_last_index = Json.int_field j "last_index" in
      Ok (Shard_done { sd_at_ms = at_ms; sd_worker; sd_tests; sd_last_index })
  | "worker_crash" ->
      let* wc_worker = Json.int_field j "worker" in
      let* wc_index = Json.int_field j "index" in
      let* wc_seed = Json.int_field j "seed" in
      let* wc_cause = Json.str_field j "cause" in
      let* wc_restarts = Json.int_field j "restarts" in
      Ok
        (Worker_crash
           { wc_at_ms = at_ms; wc_worker; wc_index; wc_seed; wc_cause; wc_restarts })
  | "resume" ->
      let* rs_applied = Json.int_field j "applied" in
      let* rs_tests = Json.int_field j "tests" in
      let* rs_shards = Json.int_field j "shards" in
      Ok (Resume { rs_at_ms = at_ms; rs_applied; rs_tests; rs_shards })
  | "summary" ->
      let* f_tests = Json.int_field j "tests" in
      let* f_tests_per_sec = Json.float_field j "tests_per_sec" in
      let* f_verdicts = Json.counts_of_json "verdicts" j in
      let* f_failures = Json.int_field j "failures" in
      let* f_saved = Json.int_field j "saved" in
      let* f_dups = Json.int_field j "dups" in
      let* f_cov_total = Json.int_field j "cov_total" in
      let* f_cov_pass = Json.int_field j "cov_pass" in
      let* f_dropped = Json.int_field j "dropped" in
      Ok
        (Summary
           {
             f_at_ms = at_ms;
             f_tests;
             f_tests_per_sec;
             f_verdicts;
             f_failures;
             f_saved;
             f_dups;
             f_cov_total;
             f_cov_pass;
             f_dropped;
           })
  | k -> Error (Printf.sprintf "unknown event kind %S" k)

let event_of_line line =
  match Json.parse line with
  | Error m -> Error m
  | Ok j -> of_json j

(* ------------------------------------------------------------------ *)
(* Writer: single-writer, append-mode, one flushed line per event.     *)

type t = {
  j_path : string option;
  j_oc : out_channel option;
  j_observer : (event -> unit) option;
  mutable j_events : int;
  mutable j_closed : bool;
}

let default_file = "journal.jsonl"
let in_dir dir = Filename.concat dir default_file

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?observer ?path () =
  let oc =
    Option.map
      (fun p ->
        mkdir_p (Filename.dirname p);
        open_out_gen [ Open_append; Open_creat ] 0o644 p)
      path
  in
  { j_path = path; j_oc = oc; j_observer = observer; j_events = 0; j_closed = false }

let path t = t.j_path
let events_written t = t.j_events

let emit t ev =
  if not t.j_closed then begin
    t.j_events <- t.j_events + 1;
    Tel.incr "journal/events";
    (match t.j_oc with
    | Some oc ->
        (* One complete line per write, flushed immediately: a kill -9 can
           tear at most the line being written, never an earlier one. *)
        output_string oc (Json.to_string (to_json ev));
        output_char oc '\n';
        flush oc
    | None -> ());
    match t.j_observer with Some f -> f ev | None -> ()
  end

let close t =
  if not t.j_closed then begin
    t.j_closed <- true;
    match t.j_oc with Some oc -> close_out oc | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Tolerant reader                                                     *)

type read_result = {
  events : event list;  (** in write order *)
  torn_tail : bool;  (** the final line was truncated or garbage *)
  bad_lines : int;  (** unparseable non-final lines (skipped) *)
}

let read_string (s : string) : read_result =
  (* Split into (line, terminated) pairs; the final fragment after the last
     newline — if any — is an unterminated tail. *)
  let n = String.length s in
  let lines = ref [] in
  let start = ref 0 in
  for i = 0 to n - 1 do
    if s.[i] = '\n' then begin
      lines := (String.sub s !start (i - !start), true) :: !lines;
      start := i + 1
    end
  done;
  if !start < n then lines := (String.sub s !start (n - !start), false) :: !lines;
  let lines =
    List.rev !lines |> List.filter (fun (l, _) -> String.trim l <> "")
  in
  let total = List.length lines in
  let events = ref [] and bad = ref 0 and torn = ref false in
  List.iteri
    (fun i (line, terminated) ->
      match event_of_line line with
      | Ok ev -> events := ev :: !events
      | Error _ ->
          (* The final line — terminated or not — is a torn tail (the
             classic kill -9 artefact); earlier garbage is counted. *)
          if i = total - 1 then torn := true
          else begin
            incr bad;
            ignore terminated
          end)
    lines;
  { events = List.rev !events; torn_tail = !torn; bad_lines = !bad }

(* One-line human rendering of an event, for [nnsmith journal tail]. *)
let summary_line ev =
  let counts kvs =
    String.concat " " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) kvs)
  in
  match ev with
  | Start s ->
      Printf.sprintf "[start] %s systems=%s seed=%d jobs=%d %s" s.s_kind
        (String.concat "," s.s_systems)
        s.s_root_seed s.s_jobs
        (match s.s_budget with
        | B_tests n -> Printf.sprintf "tests=%d" n
        | B_time_ms ms -> Printf.sprintf "time=%.0fms" ms)
  | Heartbeat h ->
      Printf.sprintf "[hb] w%d seq=%d tests=%d cov=%d/%d %s" h.h_worker h.h_seq
        h.h_tests h.h_cov_total h.h_cov_universe (counts h.h_verdicts)
  | Bug b ->
      Printf.sprintf "[bug] %s %s %s case=%s count=%d%s" b.b_system b.b_verdict
        b.b_key b.b_case b.b_count
        (if b.b_new then "" else " (dup)")
  | Coverage c ->
      Printf.sprintf "[coverage] tests=%d total=%d pass=%d" c.c_tests c.c_total
        c.c_pass
  | Op_stats o -> Printf.sprintf "[op_stats] %d op kinds" (List.length o.o_ops)
  | Dropped d -> Printf.sprintf "[dropped] %d events" d.d_count
  | Shard_done sd ->
      Printf.sprintf "[shard_done] w%d tests=%d last_index=%d" sd.sd_worker
        sd.sd_tests sd.sd_last_index
  | Worker_crash wc ->
      Printf.sprintf "[worker_crash] w%d index=%d seed=%d cause=%s restarts=%d"
        wc.wc_worker wc.wc_index wc.wc_seed wc.wc_cause wc.wc_restarts
  | Resume rs ->
      Printf.sprintf "[resume] applied=%d/%d shards=%d" rs.rs_applied rs.rs_tests
        rs.rs_shards
  | Summary f ->
      Printf.sprintf "[summary] tests=%d (%.1f/s) failures=%d saved=%d cov=%d %s"
        f.f_tests f.f_tests_per_sec f.f_failures f.f_saved f.f_cov_total
        (counts f.f_verdicts)

let read_file path : (read_result, string) result =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Ok (read_string s)

(* Drop an unterminated final line so an append-mode writer reopening the
   file cannot concatenate its first event onto a torn fragment.  Returns
   the number of bytes truncated (0 when the tail is clean or the file is
   missing). *)
let repair_tail path =
  match open_in_bin path with
  | exception Sys_error _ -> 0
  | ic ->
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let n = String.length s in
      if n = 0 || s.[n - 1] = '\n' then 0
      else begin
        let keep = match String.rindex_opt s '\n' with Some i -> i + 1 | None -> 0 in
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> Unix.ftruncate fd keep);
        n - keep
      end
