(** Fleet wire protocol: length-prefixed, versioned frames between worker
    processes and the supervisor, plus the worker-config payload shipped
    through the environment at spawn.

    Every payload is one single-line JSON object carrying ["v"] (protocol
    version); a version mismatch decodes to [Error], which the supervisor
    treats as a worker crash.  The incremental decoder buffers partial
    reads; a torn trailing frame at EOF (worker killed mid-write) simply
    never completes — earlier frames are unaffected, the same tolerance
    discipline as the journal reader. *)

val version : int

val env_var : string
(** ["NNSMITH_FLEET_WORKER"] — carries the JSON worker config. *)

val abort_env_var : string
(** ["NNSMITH_FLEET_ABORT_INDICES"] — deterministic fault injection:
    comma-separated global test indices at which a worker exits with
    {!abort_exit_code} {e before} running the index.  Drives the
    crash-tolerance tests and the CI fleet smoke gate. *)

val abort_exit_code : int
(** [66]. *)

val abort_indices : unit -> int list
(** Parse {!abort_env_var} from the calling process's environment. *)

(** {1 Worker configuration} *)

type worker_config = {
  wc_kind : string;  (** "fuzz" | "hunt" *)
  wc_worker : int;  (** shard id in [\[0, shards)] *)
  wc_shards : int;
  wc_start_index : int;  (** first global index this worker runs *)
  wc_tests : int;  (** global budget: run indices [< tests] *)
  wc_root_seed : int;
  wc_max_nodes : int;
  wc_binning : bool;
  wc_systems : string list;  (** by [Systems.s_name]; hunt ignores this *)
  wc_faults : string list;  (** seeded-defect ids to activate *)
}

val worker_config_to_string : worker_config -> string
val worker_config_of_string : string -> (worker_config, string) result

val system_of_name : string -> Nnsmith_difftest.Systems.t option

(** {1 Payload codecs} *)

val verdict_to_json :
  Nnsmith_difftest.Harness.verdict -> Nnsmith_telemetry.Json.t

val verdict_of_json :
  Nnsmith_telemetry.Json.t -> (Nnsmith_difftest.Harness.verdict, string) result
(** Relative errors are carried as [%h] strings, so the verdict — unlike
    the house JSON number format — round-trips bit-exactly. *)

val failure_to_json : Nnsmith_difftest.Pfuzz.failure -> Nnsmith_telemetry.Json.t

val failure_of_json :
  Nnsmith_telemetry.Json.t -> (Nnsmith_difftest.Pfuzz.failure, string) result
(** Graph via {!Nnsmith_ir.Serial}, binding via {!Nnsmith_tensor.Tser},
    system resolved by name over [Systems.all]. *)

val outcome_to_json : Nnsmith_difftest.Pfuzz.outcome -> Nnsmith_telemetry.Json.t

val outcome_of_json :
  Nnsmith_telemetry.Json.t -> (Nnsmith_difftest.Pfuzz.outcome, string) result

(** {1 Frames} *)

type outcome_frame = {
  fo_index : int;  (** global test index *)
  fo_tests : int;  (** this worker's cumulative completed tests *)
  fo_outcome : Nnsmith_difftest.Pfuzz.outcome;
  fo_cov_delta : (string * bool) list;
      (** sites first hit by this test (worker-relative delta); the
          supervisor unions deltas in apply order *)
  fo_cov_total : int;  (** worker-cumulative, for heartbeat display *)
  fo_cov_universe : int;
}

type frame =
  | Hello of { worker : int; pid : int }
  | Outcome of outcome_frame
  | Shard_done of { tests : int; last_index : int }
      (** the worker ran its whole index range; EOF after this is a clean
          exit, EOF without it is a crash *)

val frame_to_json : frame -> Nnsmith_telemetry.Json.t
val frame_of_json : Nnsmith_telemetry.Json.t -> (frame, string) result

val max_frame_bytes : int

val encode : frame -> string
(** 4-byte big-endian payload length, then the JSON payload. *)

(** {1 Incremental decoder} *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> bytes -> len:int -> unit
(** Append the first [len] bytes just read from the pipe. *)

val next : decoder -> (frame option, string) result
(** Pull the next complete frame; [Ok None] means more bytes are needed
    (at EOF, any pending bytes are a torn final frame — expected after a
    worker kill).  [Error] on an oversized length prefix, unparseable
    payload, or protocol-version mismatch — the supervisor treats these
    as a worker crash. *)

val pending : decoder -> int
(** Buffered bytes not yet consumed by a complete frame. *)
