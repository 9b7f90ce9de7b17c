(** Append-only, crash-safe campaign journal.

    A fuzzing campaign emits a stream of structured events — configuration
    at start, per-shard heartbeats with monotonic per-worker sequence
    numbers, bug discoveries (dedup key, reducer stats), coverage-delta
    snapshots and a final summary — written as one JSON object per line to
    an append-mode file.  Writes happen on the spawning domain only (the
    corpus-sink discipline of [Nnsmith_parallel.Pool]); each event is
    flushed as one complete line, so a process killed mid-write tears at
    most its final line, which {!read_file} tolerates.  The journal is the
    single source both the live [--progress] line and the static HTML
    dashboard are derived from, so the terminal view and the on-disk
    record cannot disagree. *)

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
      s_at_ms : float;  (** absolute wall-clock ms ([Telemetry.now_ms]) *)
      s_kind : string;  (** fuzz | coverage | hunt | campaign | ... *)
      s_systems : string list;
      s_generator : string;
      s_root_seed : int;
      s_jobs : int;
      s_budget : budget;
    }
  | Heartbeat of {
      h_worker : int;
      h_seq : int;  (** per-worker, strictly increasing *)
      h_at_ms : float;
      h_tests : int;  (** cumulative for this worker *)
      h_verdicts : (string * int) list;  (** cumulative, sorted by name *)
      h_cov_total : int;  (** this worker's domain-local coverage *)
      h_cov_pass : int;
      h_cov_universe : int;
    }
  | Bug of {
      b_at_ms : float;
      b_key : string;
      b_system : string;
      b_verdict : string;
      b_case : string;  (** corpus case id; "" when not persisted *)
      b_nodes : int;
      b_count : int;  (** hits of this key so far, this one included *)
      b_new : bool;  (** [false]: duplicate of an already-saved case *)
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
          (** op kind -> verdict kind -> count; both levels sorted *)
    }
  | Dropped of { d_at_ms : float; d_count : int }
      (** events a saturated cross-domain channel refused.  Only journals
          written before every test's events rode one unbounded message
          carry it; it is still read so they stay readable. *)
  | Shard_done of {
      sd_at_ms : float;
      sd_worker : int;
      sd_tests : int;  (** tests this shard completed over the campaign *)
      sd_last_index : int;
          (** highest global index the shard ran; [-1] for an empty shard *)
    }  (** a fleet shard ran its whole index range to the end *)
  | Worker_crash of {
      wc_at_ms : float;
      wc_worker : int;
      wc_index : int;  (** global test index the worker died on *)
      wc_seed : int;  (** derived seed of that index *)
      wc_cause : string;  (** e.g. ["exit 66"], ["signal 9"], ["heartbeat timeout"] *)
      wc_restarts : int;  (** restarts of this shard so far, this one included *)
    }  (** a fleet worker process died mid-range; the supervisor files the
          crash and restarts the shard past the offending index *)
  | Resume of {
      rs_at_ms : float;
      rs_applied : int;  (** checkpoint high-water mark: indices [0, applied)
                             were already applied before this resume *)
      rs_tests : int;  (** campaign test budget *)
      rs_shards : int;
    }  (** a fleet campaign continued from its checkpoint *)
  | Summary of {
      f_at_ms : float;
      f_tests : int;
      f_tests_per_sec : float;
      f_verdicts : (string * int) list;
      f_failures : int;  (** distinct failure dedup-keys *)
      f_saved : int;
      f_dups : int;
      f_cov_total : int;
      f_cov_pass : int;
      f_dropped : int;  (** always 0 now; see [Dropped] *)
    }

val now_ms : unit -> float
(** The shared campaign clock ([Telemetry.now_ms]). *)

val to_json : event -> Nnsmith_telemetry.Json.t
val of_json : Nnsmith_telemetry.Json.t -> (event, string) result
val event_of_line : string -> (event, string) result

(** {1 Writer} *)

type t

val create : ?observer:(event -> unit) -> ?path:string -> unit -> t
(** A journal writer.  With [path], events append to that file (parent
    directories are created; an existing journal is continued, which is
    what a resumed campaign wants).  [observer] sees every event after it
    is durably written — the live progress line hangs off this.  With
    neither, {!emit} only counts (a null journal keeps call sites
    branch-free). *)

val default_file : string
(** ["journal.jsonl"]. *)

val in_dir : string -> string
(** [in_dir dir] is the conventional journal path inside a campaign
    directory. *)

val emit : t -> event -> unit
(** Encode, append, flush, then notify the observer.  Single-writer: call
    only from the domain that created [t].  Bumps the [journal/events]
    telemetry counter. *)

val close : t -> unit
(** Close the underlying file; further {!emit}s are ignored. *)

val path : t -> string option
val events_written : t -> int

(** {1 Tolerant reader} *)

type read_result = {
  events : event list;  (** in write order *)
  torn_tail : bool;  (** the final line was truncated or garbage *)
  bad_lines : int;  (** unparseable non-final lines (skipped) *)
}

val read_string : string -> read_result
val read_file : string -> (read_result, string) result
(** [Error] only when the file cannot be read at all; a torn final line —
    the kill -9 artefact — is reported via [torn_tail], with every
    preceding event intact. *)

val summary_line : event -> string
(** One-line human rendering, used by [nnsmith journal tail]. *)

val repair_tail : string -> int
(** Truncate an unterminated final line in place, so a writer reopening
    the journal in append mode cannot concatenate its first event onto a
    torn fragment.  Returns the bytes dropped (0 when the tail is already
    clean or the file does not exist). *)
