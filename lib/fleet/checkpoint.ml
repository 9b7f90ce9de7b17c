(** Campaign checkpoint: the durable high-water mark of a fleet run.

    The supervisor applies worker outcomes in strict global index order,
    so a single [applied] mark fully describes progress: indices
    [\[0, applied)] are reflected in the cumulative tallies, the coverage
    union and the corpus.  The checkpoint additionally records the corpus
    index length at save time ([ck_index_bytes]): appends made after the
    last checkpoint are {e undone} on resume by truncating [index.jsonl]
    back to that offset, then deterministically re-produced by re-running
    the indices — the write-ahead-undo that makes a resumed campaign
    byte-identical to an uninterrupted one.

    Saves are atomic (tmp + fsync + rename), so a kill at any moment
    leaves either the old or the new checkpoint, never a torn one. *)

module Json = Nnsmith_telemetry.Json
module Tel = Nnsmith_telemetry.Telemetry
open Json.Syntax

type t = {
  ck_version : int;
  ck_kind : string;  (** "fuzz" | "hunt" *)
  ck_root_seed : int;
  ck_shards : int;
  ck_tests : int;
  ck_max_nodes : int;
  ck_binning : bool;
  ck_systems : string list;
  ck_faults : string list;
  ck_applied : int;  (** indices [0, applied) fully applied *)
  ck_shard_next : int list;
      (** per-shard next index, derived from [applied] (recorded for
          observability; resume recomputes it) *)
  ck_index_bytes : int;  (** corpus index.jsonl length at save time *)
  ck_coverage : (string * bool) list;  (** cumulative union, sorted *)
  ck_verdicts : (string * int) list;
  ck_crashes : (string * int) list;
  ck_keys : string list;
  ck_triggered : (string * int) list;
  ck_ops : (string * (string * int) list) list;
  ck_saved : int;
  ck_dups : int;
  ck_worker_crashes : int;
  ck_restarts : int;
  ck_complete : bool;
  ck_at_ms : float;
}

let file_name = "checkpoint.json"
let in_dir dir = Filename.concat dir file_name

let version = 1

(* Smallest index >= applied belonging to shard w (i mod shards = w). *)
let next_index_for ~applied ~shards w =
  applied + (((w - applied) mod shards + shards) mod shards)

let shard_next ~applied ~shards =
  List.init shards (next_index_for ~applied ~shards)

let ints_of_json k j =
  match Json.member k j with
  | Some (Json.Arr xs) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.Num n :: rest -> go (int_of_float n :: acc) rest
        | _ -> Error (Printf.sprintf "field %S: non-number element" k)
      in
      go [] xs
  | Some _ -> Error (Printf.sprintf "field %S is not an array" k)
  | None -> Ok []

let to_json c =
  Json.Obj
    [
      ("v", Json.Num (float_of_int c.ck_version));
      ("kind", Json.Str c.ck_kind);
      ("root_seed", Json.Str (string_of_int c.ck_root_seed));
      ("shards", Json.Num (float_of_int c.ck_shards));
      ("tests", Json.Num (float_of_int c.ck_tests));
      ("max_nodes", Json.Num (float_of_int c.ck_max_nodes));
      ("binning", Json.Bool c.ck_binning);
      ("systems", Json.strings_to_json c.ck_systems);
      ("faults", Json.strings_to_json c.ck_faults);
      ("applied", Json.Num (float_of_int c.ck_applied));
      ( "shard_next",
        Json.Arr (List.map (fun n -> Json.Num (float_of_int n)) c.ck_shard_next)
      );
      ("index_bytes", Json.Num (float_of_int c.ck_index_bytes));
      ("coverage", Json.sites_to_json c.ck_coverage);
      ("verdicts", Json.counts_to_json c.ck_verdicts);
      ("crashes", Json.counts_to_json c.ck_crashes);
      ("keys", Json.strings_to_json c.ck_keys);
      ("triggered", Json.counts_to_json c.ck_triggered);
      ("ops", Json.ops_to_json c.ck_ops);
      ("saved", Json.Num (float_of_int c.ck_saved));
      ("dups", Json.Num (float_of_int c.ck_dups));
      ("worker_crashes", Json.Num (float_of_int c.ck_worker_crashes));
      ("restarts", Json.Num (float_of_int c.ck_restarts));
      ("complete", Json.Bool c.ck_complete);
      ("at_ms", Json.Num c.ck_at_ms);
    ]

let of_json j =
  let* v = Json.int_field j "v" in
  if v <> version then
    Error (Printf.sprintf "checkpoint version mismatch: got %d, want %d" v version)
  else
    let* ck_kind = Json.str_field j "kind" in
    let* rs = Json.str_field j "root_seed" in
    let* ck_root_seed =
      match int_of_string_opt rs with
      | Some n -> Ok n
      | None -> Error ("bad root_seed " ^ rs)
    in
    let* ck_shards = Json.int_field j "shards" in
    let* ck_tests = Json.int_field j "tests" in
    let* ck_max_nodes = Json.int_field j "max_nodes" in
    let* ck_binning = Json.bool_field j "binning" in
    let* ck_systems = Json.strings_of_json "systems" j in
    let* ck_faults = Json.strings_of_json "faults" j in
    let* ck_applied = Json.int_field j "applied" in
    let* ck_shard_next = ints_of_json "shard_next" j in
    let* ck_index_bytes = Json.int_field j "index_bytes" in
    let* ck_coverage =
      (* checkpoints word a non-object coverage field their own way *)
      match Json.member "coverage" j with
      | Some (Json.Obj _) | None -> Json.sites_of_json "coverage" j
      | Some _ -> Error "coverage is not an object"
    in
    let* ck_verdicts = Json.counts_of_json "verdicts" j in
    let* ck_crashes = Json.counts_of_json "crashes" j in
    let* ck_keys = Json.strings_of_json "keys" j in
    let* ck_triggered = Json.counts_of_json "triggered" j in
    let* ck_ops = Json.ops_of_json "ops" j in
    let* ck_saved = Json.int_field j "saved" in
    let* ck_dups = Json.int_field j "dups" in
    let* ck_worker_crashes = Json.int_field j "worker_crashes" in
    let* ck_restarts = Json.int_field j "restarts" in
    let* ck_complete = Json.bool_field j "complete" in
    let* ck_at_ms = Json.float_field j "at_ms" in
    Ok
      {
        ck_version = v;
        ck_kind;
        ck_root_seed;
        ck_shards;
        ck_tests;
        ck_max_nodes;
        ck_binning;
        ck_systems;
        ck_faults;
        ck_applied;
        ck_shard_next;
        ck_index_bytes;
        ck_coverage;
        ck_verdicts;
        ck_crashes;
        ck_keys;
        ck_triggered;
        ck_ops;
        ck_saved;
        ck_dups;
        ck_worker_crashes;
        ck_restarts;
        ck_complete;
        ck_at_ms;
      }

(* Atomic save: a kill at any instant leaves either the previous
   checkpoint or this one, never a torn file. *)
let save dir c =
  let path = in_dir dir in
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let s = Json.to_string (to_json c) ^ "\n" in
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let rec go off =
        if off < n then go (off + Unix.write fd b off (n - off))
      in
      go 0;
      Unix.fsync fd);
  Unix.rename tmp path;
  Tel.incr "fleet/checkpoints"

let load dir =
  let path = in_dir dir in
  if not (Sys.file_exists path) then Ok None
  else
    match open_in_bin path with
    | exception Sys_error m -> Error m
    | ic ->
        let s =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let* j = Json.parse (String.trim s) in
        let* c = of_json j in
        Ok (Some c)
