(** Persistent bug-report corpus: the on-disk artefact store that survives a
    fuzzing process.  A {e case} is a directory bundle — the serialized
    graph ([Nnsmith_ir.Serial]), the serialized leaf binding
    ([Nnsmith_tensor.Tser]) and a JSON metadata file — and the corpus root
    keeps an append-only JSONL index keyed by crash dedup-key, so a defect
    seen in {e any} previous run is recognised and only counted, not
    re-saved.  This is the NNSmith report directory (§4): the substrate for
    cross-run triage, regression replay and reduction bookkeeping. *)

module Json = Nnsmith_telemetry.Json
module Tel = Nnsmith_telemetry.Telemetry
module Graph = Nnsmith_ir.Graph
module Op = Nnsmith_ir.Op
module Serial = Nnsmith_ir.Serial
module Nd = Nnsmith_tensor.Nd
module Tser = Nnsmith_tensor.Tser
module Journal = Nnsmith_journal.Journal
open Json.Syntax

exception Corpus_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Corpus_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Schema types                                                        *)

type verdict =
  | Pass
  | Crash of string
  | Semantic of { sem_kind : [ `Optimization | `Frontend ]; rel_err : float }
  | Skipped of string

type reduction = {
  red_attempts : int;
  red_accepted : int;
  red_initial : int;
  red_final : int;
  red_ms : float;
}

type meta = {
  seed : int;
  generator : string;
  system : string;
  verdict : verdict;
  dedup_key : string;
  active_bugs : string list;
  triggered_bugs : string list;
  export_bugs : string list;
  reduction : reduction option;
}

type case = {
  case_id : string;
  graph : Graph.t;
  binding : (int * Nd.t) list;
  meta : meta;
}

let verdict_kind = function
  | Pass -> "pass"
  | Crash _ -> "crash"
  | Semantic _ -> "semantic"
  | Skipped _ -> "skipped"

(* ------------------------------------------------------------------ *)
(* JSON encode/decode (hand-rolled over Telemetry's Json, like the
   telemetry JSONL schema; key order is fixed so files diff cleanly).   *)

let verdict_to_json = function
  | Pass -> Json.Obj [ ("kind", Json.Str "pass") ]
  | Crash m -> Json.Obj [ ("kind", Json.Str "crash"); ("message", Json.Str m) ]
  | Semantic { sem_kind; rel_err } ->
      Json.Obj
        [
          ("kind", Json.Str "semantic");
          ( "sem_kind",
            Json.Str
              (match sem_kind with
              | `Optimization -> "optimization"
              | `Frontend -> "frontend") );
          ("rel_err", Json.Num rel_err);
        ]
  | Skipped r ->
      Json.Obj [ ("kind", Json.Str "skipped"); ("reason", Json.Str r) ]

let verdict_of_json j =
  let* kind = Json.str_field j "kind" in
  match kind with
  | "pass" -> Ok Pass
  | "crash" ->
      let* m = Json.str_field j "message" in
      Ok (Crash m)
  | "skipped" ->
      let* r = Json.str_field j "reason" in
      Ok (Skipped r)
  | "semantic" ->
      let* sk = Json.str_field j "sem_kind" in
      let* sem_kind =
        match sk with
        | "optimization" -> Ok `Optimization
        | "frontend" -> Ok `Frontend
        | s -> Error ("bad sem_kind " ^ s)
      in
      let rel_err =
        Option.value ~default:0.
          (Option.bind (Json.member "rel_err" j) Json.to_float)
      in
      Ok (Semantic { sem_kind; rel_err })
  | k -> Error ("unknown verdict kind " ^ k)

let reduction_to_json r =
  Json.Obj
    [
      ("attempts", Json.Num (float_of_int r.red_attempts));
      ("accepted", Json.Num (float_of_int r.red_accepted));
      ("initial_nodes", Json.Num (float_of_int r.red_initial));
      ("final_nodes", Json.Num (float_of_int r.red_final));
      ("ms", Json.Num r.red_ms);
    ]

let reduction_of_json j =
  let* red_attempts = Json.int_field j "attempts" in
  let* red_accepted = Json.int_field j "accepted" in
  let* red_initial = Json.int_field j "initial_nodes" in
  let* red_final = Json.int_field j "final_nodes" in
  let red_ms =
    Option.value ~default:0. (Option.bind (Json.member "ms" j) Json.to_float)
  in
  Ok { red_attempts; red_accepted; red_initial; red_final; red_ms }

let meta_to_json (m : meta) =
  Json.Obj
    [
      ("seed", Json.Num (float_of_int m.seed));
      ("generator", Json.Str m.generator);
      ("system", Json.Str m.system);
      ("dedup_key", Json.Str m.dedup_key);
      ("verdict", verdict_to_json m.verdict);
      ("active_bugs", Json.strings_to_json m.active_bugs);
      ("triggered_bugs", Json.strings_to_json m.triggered_bugs);
      ("export_bugs", Json.strings_to_json m.export_bugs);
      ( "reduction",
        match m.reduction with
        | None -> Json.Null
        | Some r -> reduction_to_json r );
    ]

let meta_of_json j : (meta, string) result =
  let* seed = Json.int_field j "seed" in
  let* generator = Json.str_field j "generator" in
  let* system = Json.str_field j "system" in
  let* dedup_key = Json.str_field j "dedup_key" in
  let* verdict =
    match Json.member "verdict" j with
    | Some v -> verdict_of_json v
    | None -> Error "missing verdict"
  in
  let* active_bugs = Json.strings_of_json "active_bugs" j in
  let* triggered_bugs = Json.strings_of_json "triggered_bugs" j in
  let* export_bugs = Json.strings_of_json "export_bugs" j in
  let* reduction =
    match Json.member "reduction" j with
    | None | Some Json.Null -> Ok None
    | Some r ->
        let* r = reduction_of_json r in
        Ok (Some r)
  in
  Ok
    {
      seed;
      generator;
      system;
      verdict;
      dedup_key;
      active_bugs;
      triggered_bugs;
      export_bugs;
      reduction;
    }

(* ------------------------------------------------------------------ *)
(* The corpus handle: directory + in-memory mirror of index.jsonl.     *)

type entry = {
  e_id : string;
  e_key : string;
  e_system : string;
  e_kind : string;
  e_bugs : string list;
  e_nodes : int;
}

type t = {
  dir : string;
  mutable entries : entry list;  (** reverse save order *)
  by_key : (string, entry) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  first_seen : (string, int) Hashtbl.t;  (** key -> index seq of first hit *)
  last_seen : (string, int) Hashtbl.t;
  mutable seq : int;  (** index records processed (cases and dups) *)
  mutable next : int;
  journal : Journal.t option;
}

let dir t = t.dir
let index_file t = Filename.concat t.dir "index.jsonl"
let cases_dir t = Filename.concat t.dir "cases"
let case_dir t id = Filename.concat (cases_dir t) id

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let bump counts key by =
  Hashtbl.replace counts key
    (by + Option.value ~default:0 (Hashtbl.find_opt counts key))

let entry_to_json e =
  Json.Obj
    [
      ("kind", Json.Str "case");
      ("id", Json.Str e.e_id);
      ("dedup_key", Json.Str e.e_key);
      ("system", Json.Str e.e_system);
      ("verdict", Json.Str e.e_kind);
      ("bugs", Json.strings_to_json e.e_bugs);
      ("nodes", Json.Num (float_of_int e.e_nodes));
    ]

let entry_of_json j =
  let* e_id = Json.str_field j "id" in
  let* e_key = Json.str_field j "dedup_key" in
  let* e_system = Json.str_field j "system" in
  let* e_kind = Json.str_field j "verdict" in
  let* e_bugs = Json.strings_of_json "bugs" j in
  let* e_nodes = Json.int_field j "nodes" in
  Ok { e_id; e_key; e_system; e_kind; e_bugs; e_nodes }

let append_index t json =
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 (index_file t)
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

(* One index record (case or dup) for [key] just happened: advance the
   sequence clock and note the key's first/last position on it. *)
let note_seen t key =
  t.seq <- t.seq + 1;
  if not (Hashtbl.mem t.first_seen key) then
    Hashtbl.replace t.first_seen key t.seq;
  Hashtbl.replace t.last_seen key t.seq

let register t e =
  t.entries <- e :: t.entries;
  if not (Hashtbl.mem t.by_key e.e_key) then Hashtbl.replace t.by_key e.e_key e;
  bump t.counts e.e_key 1;
  note_seen t e.e_key;
  t.next <- t.next + 1

let load_index t =
  match open_in (index_file t) with
  | exception Sys_error _ -> ()
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let lineno = ref 0 in
          try
            while true do
              let line = input_line ic in
              incr lineno;
              if String.trim line <> "" then begin
                let j =
                  match Json.parse line with
                  | Ok j -> j
                  | Error m -> fail "index line %d: %s" !lineno m
                in
                match Option.bind (Json.member "kind" j) Json.to_str with
                | Some "case" -> (
                    match entry_of_json j with
                    | Ok e -> register t e
                    | Error m -> fail "index line %d: %s" !lineno m)
                | Some "dup" -> (
                    match Json.str_field j "dedup_key" with
                    | Ok k ->
                        bump t.counts k 1;
                        note_seen t k
                    | Error m -> fail "index line %d: %s" !lineno m)
                | Some k -> fail "index line %d: unknown kind %S" !lineno k
                | None -> fail "index line %d: missing kind" !lineno
              end
            done
          with End_of_file -> ())

let open_ ?journal dirname =
  mkdir_p (Filename.concat dirname "cases");
  let t =
    {
      dir = dirname;
      entries = [];
      by_key = Hashtbl.create 64;
      counts = Hashtbl.create 64;
      first_seen = Hashtbl.create 64;
      last_seen = Hashtbl.create 64;
      seq = 0;
      next = 1;
      journal;
    }
  in
  load_index t;
  t

let size t = List.length t.entries
let seen t key = Hashtbl.mem t.by_key key
let count t key = Option.value ~default:0 (Hashtbl.find_opt t.counts key)
let case_ids t = List.rev_map (fun e -> e.e_id) t.entries

let find_by_key t key =
  Option.map (fun e -> e.e_id) (Hashtbl.find_opt t.by_key key)

(* ------------------------------------------------------------------ *)
(* Saving                                                              *)

let slug_of_key key =
  let b = Buffer.create 24 in
  String.iter
    (fun c ->
      if Buffer.length b < 24 then
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' ->
            Buffer.add_char b c
        | _ -> Buffer.add_char b '-')
    key;
  if Buffer.length b = 0 then "case" else Buffer.contents b

let journal_bug t ~key ~system ~verdict ~case ~nodes ~is_new ~reducer =
  Option.iter
    (fun j ->
      Journal.emit j
        (Journal.Bug
           {
             b_at_ms = Journal.now_ms ();
             b_key = key;
             b_system = system;
             b_verdict = verdict;
             b_case = case;
             b_nodes = nodes;
             b_count = count t key;
             b_new = is_new;
             b_reducer = reducer;
           }))
    t.journal

let record_duplicate t key =
  match Hashtbl.find_opt t.by_key key with
  | None -> None
  | Some e ->
      bump t.counts key 1;
      note_seen t key;
      append_index t
        (Json.Obj [ ("kind", Json.Str "dup"); ("dedup_key", Json.Str key) ]);
      Tel.incr "corpus/dup_suppressed";
      journal_bug t ~key ~system:e.e_system ~verdict:e.e_kind ~case:e.e_id
        ~nodes:e.e_nodes ~is_new:false ~reducer:None;
      Some e.e_id

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let add t ~graph ~binding ~(meta : meta) =
  Tel.with_span "corpus/save" @@ fun () ->
  match record_duplicate t meta.dedup_key with
  | Some id -> `Duplicate id
  | None ->
      let id = Printf.sprintf "%04d-%s" t.next (slug_of_key meta.dedup_key) in
      let d = case_dir t id in
      mkdir_p d;
      Serial.save (Filename.concat d "graph.nns") graph;
      Tser.save_binding (Filename.concat d "binding.nnt") binding;
      write_file (Filename.concat d "meta.json")
        (Json.to_string (meta_to_json meta) ^ "\n");
      let e =
        {
          e_id = id;
          e_key = meta.dedup_key;
          e_system = meta.system;
          e_kind = verdict_kind meta.verdict;
          e_bugs = meta.triggered_bugs @ meta.export_bugs;
          e_nodes = Graph.size graph;
        }
      in
      append_index t (entry_to_json e);
      register t e;
      Tel.incr "corpus/saved";
      journal_bug t ~key:meta.dedup_key ~system:meta.system
        ~verdict:(verdict_kind meta.verdict) ~case:id ~nodes:e.e_nodes
        ~is_new:true
        ~reducer:
          (Option.map
             (fun (r : reduction) ->
               {
                 Journal.rd_attempts = r.red_attempts;
                 rd_accepted = r.red_accepted;
                 rd_initial = r.red_initial;
                 rd_final = r.red_final;
                 rd_ms = r.red_ms;
               })
             meta.reduction);
      `Saved id

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_case t id =
  let d = case_dir t id in
  let graph =
    try Serial.load (Filename.concat d "graph.nns")
    with Serial.Parse_error m -> fail "case %s: bad graph: %s" id m
  in
  let binding =
    try Tser.load_binding (Filename.concat d "binding.nnt")
    with Tser.Parse_error m -> fail "case %s: bad binding: %s" id m
  in
  let meta =
    match Json.parse (read_file (Filename.concat d "meta.json")) with
    | Error m -> fail "case %s: bad meta.json: %s" id m
    | Ok j -> (
        match meta_of_json j with
        | Ok m -> m
        | Error m -> fail "case %s: bad meta.json: %s" id m)
  in
  { case_id = id; graph; binding; meta }

let load_all t = List.map (load_case t) (case_ids t)

let load_graph t id =
  let d = case_dir t id in
  try Serial.load (Filename.concat d "graph.nns")
  with Serial.Parse_error m -> fail "case %s: bad graph: %s" id m

(* Sorted distinct non-leaf op names — the triage table's shorthand for
   "what kind of model tickles this bug". *)
let op_signature g =
  List.filter_map
    (fun (n : Graph.node) ->
      match n.op with Op.Leaf _ -> None | op -> Some (Op.name op))
    (Graph.nodes g)
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Triage                                                              *)

type triage_row = {
  tr_key : string;
  tr_count : int;
  tr_system : string;
  tr_verdict : string;
  tr_bugs : string list;
  tr_case_id : string;
  tr_nodes : int;
  tr_first : int;
  tr_last : int;
}

let triage t : triage_row list =
  let seen_at tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
  List.rev t.entries
  |> List.map (fun e ->
         {
           tr_key = e.e_key;
           tr_count = count t e.e_key;
           tr_system = e.e_system;
           tr_verdict = e.e_kind;
           tr_bugs = e.e_bugs;
           tr_case_id = e.e_id;
           tr_nodes = e.e_nodes;
           tr_first = seen_at t.first_seen e.e_key;
           tr_last = seen_at t.last_seen e.e_key;
         })
  |> List.sort (fun a b ->
         match compare b.tr_count a.tr_count with
         | 0 -> compare a.tr_key b.tr_key
         | c -> c)
