(** Fleet wire protocol: worker configuration (shipped through the
    environment at spawn) and the worker-to-supervisor frame stream.

    Frames are length-prefixed (4-byte big-endian payload length) and
    versioned (every payload carries ["v"]); the payload is one JSON
    object in the house single-line style.  The decoder is incremental —
    feed it whatever [read] returned and pull complete frames — and, like
    the journal reader, treats a torn trailing frame at EOF as expected
    (the worker was killed mid-write), never as corruption of earlier
    frames.

    Outcomes embed full failures — graph via {!Nnsmith_ir.Serial}, binding
    via {!Nnsmith_tensor.Tser} — so the supervisor can minimize and file
    them exactly as the in-process pool's sink would.  Floats that must
    survive the trip bit-exactly (seeds, relative errors) are carried as
    strings ([%h] for floats), because the house JSON number format is
    [%.12g] and lossy. *)

module Json = Nnsmith_telemetry.Json
module Serial = Nnsmith_ir.Serial
module Tser = Nnsmith_tensor.Tser
module Graph = Nnsmith_ir.Graph
module Pfuzz = Nnsmith_difftest.Pfuzz
module Systems = Nnsmith_difftest.Systems
module Harness = Nnsmith_difftest.Harness
open Json.Syntax

let version = 1

(* Worker-side config rides in this environment variable (JSON payload). *)
let env_var = "NNSMITH_FLEET_WORKER"

(* Deterministic fault-injection hook: comma-separated global test indices
   at which a worker exits abruptly (exit 66) *before* running the index.
   Used by the crash-tolerance tests and the CI fleet smoke gate. *)
let abort_env_var = "NNSMITH_FLEET_ABORT_INDICES"
let abort_exit_code = 66

let abort_indices () =
  match Sys.getenv_opt abort_env_var with
  | None | Some "" -> []
  | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun x -> int_of_string_opt (String.trim x))

(* Exact int transport: string payload, immune to the %.12g number
   format (seeds are 62-bit SplitMix outputs). *)
let exact_int n = Json.Str (string_of_int n)

let exact_int_field j k =
  match Option.bind (Json.member k j) Json.to_str with
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "field %S: bad int %S" k s))
  | None -> Error (Printf.sprintf "missing exact-int field %S" k)

(* ------------------------------------------------------------------ *)
(* Worker configuration                                                *)

type worker_config = {
  wc_kind : string;  (** "fuzz" | "hunt" *)
  wc_worker : int;  (** shard id in [0, shards) *)
  wc_shards : int;
  wc_start_index : int;  (** first global index this worker runs *)
  wc_tests : int;  (** global budget: run indices < tests *)
  wc_root_seed : int;
  wc_max_nodes : int;
  wc_binning : bool;
  wc_systems : string list;  (** by [Systems.s_name]; hunt ignores this *)
  wc_faults : string list;  (** seeded-defect ids to activate *)
}

let worker_config_to_string wc =
  Json.to_string
    (Json.Obj
       [
         ("v", Json.Num (float_of_int version));
         ("kind", Json.Str wc.wc_kind);
         ("worker", Json.Num (float_of_int wc.wc_worker));
         ("shards", Json.Num (float_of_int wc.wc_shards));
         ("start_index", Json.Num (float_of_int wc.wc_start_index));
         ("tests", Json.Num (float_of_int wc.wc_tests));
         ("root_seed", exact_int wc.wc_root_seed);
         ("max_nodes", Json.Num (float_of_int wc.wc_max_nodes));
         ("binning", Json.Bool wc.wc_binning);
         ("systems", Json.strings_to_json wc.wc_systems);
         ("faults", Json.strings_to_json wc.wc_faults);
       ])

let worker_config_of_string s =
  let* j = Json.parse s in
  let* v = Json.int_field j "v" in
  if v <> version then
    Error (Printf.sprintf "fleet protocol version mismatch: got %d, want %d" v version)
  else
    let* wc_kind = Json.str_field j "kind" in
    let* wc_worker = Json.int_field j "worker" in
    let* wc_shards = Json.int_field j "shards" in
    let* wc_start_index = Json.int_field j "start_index" in
    let* wc_tests = Json.int_field j "tests" in
    let* wc_root_seed = exact_int_field j "root_seed" in
    let* wc_max_nodes = Json.int_field j "max_nodes" in
    let* wc_binning = Json.bool_field j "binning" in
    let* wc_systems = Json.strings_of_json "systems" j in
    let* wc_faults = Json.strings_of_json "faults" j in
    Ok
      {
        wc_kind;
        wc_worker;
        wc_shards;
        wc_start_index;
        wc_tests;
        wc_root_seed;
        wc_max_nodes;
        wc_binning;
        wc_systems;
        wc_faults;
      }

let system_of_name n =
  List.find_opt (fun (s : Systems.t) -> s.Systems.s_name = n) Systems.all

(* ------------------------------------------------------------------ *)
(* Failure / outcome payloads                                          *)

let fhex v = Printf.sprintf "%h" v

let verdict_to_json = function
  | Harness.Pass -> Json.Obj [ ("k", Json.Str "pass") ]
  | Harness.Skipped r -> Json.Obj [ ("k", Json.Str "skipped"); ("msg", Json.Str r) ]
  | Harness.Crash m -> Json.Obj [ ("k", Json.Str "crash"); ("msg", Json.Str m) ]
  | Harness.Semantic { sem_kind; rel_err } ->
      Json.Obj
        [
          ("k", Json.Str "semantic");
          ( "kind",
            Json.Str
              (match sem_kind with
              | `Optimization -> "optimization"
              | `Frontend -> "frontend") );
          (* %h round-trips exactly; Json.Num would not *)
          ("rel_err", Json.Str (fhex rel_err));
        ]

let verdict_of_json j =
  let* k = Json.str_field j "k" in
  match k with
  | "pass" -> Ok Harness.Pass
  | "skipped" ->
      let* m = Json.str_field j "msg" in
      Ok (Harness.Skipped m)
  | "crash" ->
      let* m = Json.str_field j "msg" in
      Ok (Harness.Crash m)
  | "semantic" ->
      let* kind = Json.str_field j "kind" in
      let* sem_kind =
        match kind with
        | "optimization" -> Ok `Optimization
        | "frontend" -> Ok `Frontend
        | s -> Error ("bad sem_kind " ^ s)
      in
      let* re = Json.str_field j "rel_err" in
      let* rel_err =
        match float_of_string_opt re with
        | Some f -> Ok f
        | None -> Error ("bad rel_err " ^ re)
      in
      Ok (Harness.Semantic { sem_kind; rel_err })
  | s -> Error ("unknown verdict kind " ^ s)

let failure_to_json (f : Pfuzz.failure) =
  Json.Obj
    [
      ("system", Json.Str f.Pfuzz.f_system.Systems.s_name);
      ("generator", Json.Str f.Pfuzz.f_generator);
      ("seed", exact_int f.Pfuzz.f_seed);
      ("export_bugs", Json.strings_to_json f.Pfuzz.f_export_bugs);
      ("graph", Json.Str (Serial.to_string f.Pfuzz.f_graph));
      ("binding", Json.Str (Tser.encode_binding f.Pfuzz.f_binding));
      ("verdict", verdict_to_json f.Pfuzz.f_verdict);
    ]

let failure_of_json j =
  let* name = Json.str_field j "system" in
  let* f_system =
    match system_of_name name with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "unknown system %S" name)
  in
  let* f_generator = Json.str_field j "generator" in
  let* f_seed = exact_int_field j "seed" in
  let* f_export_bugs = Json.strings_of_json "export_bugs" j in
  let* gs = Json.str_field j "graph" in
  let* f_graph =
    match Serial.of_string gs with
    | g -> Ok g
    | exception Serial.Parse_error m -> Error ("bad graph: " ^ m)
  in
  let* bs = Json.str_field j "binding" in
  let* f_binding =
    match Tser.parse_binding bs with
    | b -> Ok b
    | exception Tser.Parse_error m -> Error ("bad binding: " ^ m)
  in
  let* f_verdict =
    match Json.member "verdict" j with
    | Some v -> verdict_of_json v
    | None -> Error "missing verdict"
  in
  Ok
    {
      Pfuzz.f_system;
      f_generator;
      f_seed;
      f_export_bugs;
      f_graph;
      f_binding;
      f_verdict;
    }

let outcome_to_json (o : Pfuzz.outcome) =
  Json.Obj
    [
      ("verdicts", Json.counts_to_json o.Pfuzz.o_verdicts);
      ("crashes", Json.counts_to_json o.Pfuzz.o_crashes);
      ("keys", Json.strings_to_json o.Pfuzz.o_keys);
      ("triggered", Json.counts_to_json o.Pfuzz.o_triggered);
      ("ops", Json.ops_to_json o.Pfuzz.o_ops);
      ("failures", Json.Arr (List.map failure_to_json o.Pfuzz.o_failures));
    ]

let outcome_of_json j =
  let* o_verdicts = Json.counts_of_json "verdicts" j in
  let* o_crashes = Json.counts_of_json "crashes" j in
  let* o_keys = Json.strings_of_json "keys" j in
  let* o_triggered = Json.counts_of_json "triggered" j in
  let* o_ops = Json.ops_of_json "ops" j in
  let* o_failures =
    match Json.member "failures" j with
    | Some (Json.Arr xs) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | x :: rest ->
              let* f = failure_of_json x in
              go (f :: acc) rest
        in
        go [] xs
    | Some _ -> Error "failures field is not an array"
    | None -> Ok []
  in
  Ok
    {
      Pfuzz.o_verdicts;
      o_crashes;
      o_keys;
      o_triggered;
      o_ops;
      o_failures;
    }

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)

type outcome_frame = {
  fo_index : int;  (** global test index *)
  fo_tests : int;  (** this worker's cumulative completed tests *)
  fo_outcome : Pfuzz.outcome;
  fo_cov_delta : (string * bool) list;  (** new sites this test hit *)
  fo_cov_total : int;  (** worker-cumulative, for heartbeat display *)
  fo_cov_universe : int;
}

type frame =
  | Hello of { worker : int; pid : int }
  | Outcome of outcome_frame
  | Shard_done of { tests : int; last_index : int }

let frame_to_json = function
  | Hello h ->
      Json.Obj
        [
          ("v", Json.Num (float_of_int version));
          ("t", Json.Str "hello");
          ("worker", Json.Num (float_of_int h.worker));
          ("pid", Json.Num (float_of_int h.pid));
        ]
  | Outcome o ->
      Json.Obj
        [
          ("v", Json.Num (float_of_int version));
          ("t", Json.Str "outcome");
          ("index", Json.Num (float_of_int o.fo_index));
          ("tests", Json.Num (float_of_int o.fo_tests));
          ("outcome", outcome_to_json o.fo_outcome);
          ("cov_delta", Json.sites_to_json o.fo_cov_delta);
          ("cov_total", Json.Num (float_of_int o.fo_cov_total));
          ("cov_universe", Json.Num (float_of_int o.fo_cov_universe));
        ]
  | Shard_done d ->
      Json.Obj
        [
          ("v", Json.Num (float_of_int version));
          ("t", Json.Str "shard_done");
          ("tests", Json.Num (float_of_int d.tests));
          ("last_index", Json.Num (float_of_int d.last_index));
        ]

let frame_of_json j =
  let* v = Json.int_field j "v" in
  if v <> version then
    Error (Printf.sprintf "fleet protocol version mismatch: got %d, want %d" v version)
  else
    let* t = Json.str_field j "t" in
    match t with
    | "hello" ->
        let* worker = Json.int_field j "worker" in
        let* pid = Json.int_field j "pid" in
        Ok (Hello { worker; pid })
    | "outcome" ->
        let* fo_index = Json.int_field j "index" in
        let* fo_tests = Json.int_field j "tests" in
        let* fo_outcome =
          match Json.member "outcome" j with
          | Some o -> outcome_of_json o
          | None -> Error "missing outcome"
        in
        let* fo_cov_delta = Json.sites_of_json "cov_delta" j in
        let* fo_cov_total = Json.int_field j "cov_total" in
        let* fo_cov_universe = Json.int_field j "cov_universe" in
        Ok
          (Outcome
             {
               fo_index;
               fo_tests;
               fo_outcome;
               fo_cov_delta;
               fo_cov_total;
               fo_cov_universe;
             })
    | "shard_done" ->
        let* tests = Json.int_field j "tests" in
        let* last_index = Json.int_field j "last_index" in
        Ok (Shard_done { tests; last_index })
    | k -> Error (Printf.sprintf "unknown frame type %S" k)

(* ------------------------------------------------------------------ *)
(* Length-prefixed encoding and the incremental decoder                *)

let max_frame_bytes = 16 * 1024 * 1024

let encode frame =
  let payload = Json.to_string (frame_to_json frame) in
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

type decoder = { mutable d_buf : string; mutable d_pos : int }

let decoder () = { d_buf = ""; d_pos = 0 }

let feed d bytes ~len =
  let live = String.sub d.d_buf d.d_pos (String.length d.d_buf - d.d_pos) in
  d.d_buf <- live ^ Bytes.sub_string bytes 0 len;
  d.d_pos <- 0

let pending d = String.length d.d_buf - d.d_pos

let next d =
  let avail = pending d in
  if avail < 4 then Ok None
  else begin
    let b i = Char.code d.d_buf.[d.d_pos + i] in
    let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if len > max_frame_bytes then
      Error (Printf.sprintf "frame length %d exceeds %d" len max_frame_bytes)
    else if avail < 4 + len then Ok None
    else begin
      let payload = String.sub d.d_buf (d.d_pos + 4) len in
      d.d_pos <- d.d_pos + 4 + len;
      if pending d = 0 then begin
        d.d_buf <- "";
        d.d_pos <- 0
      end;
      let* j = Json.parse payload in
      let* f = frame_of_json j in
      Ok (Some f)
    end
  end
