(** Crash-tolerant multi-process campaign supervisor.

    Shards the index-pure test space by residue class across child OS
    processes (spawned on the campaign binary's hidden [fleet-worker]
    mode) and folds worker outcomes through the in-process domain pool's
    own {!Nnsmith_difftest.Pfuzz.Ledger}: outcomes are applied in strict
    global index order, and a fleet writes the pool's corpus and tallies
    by construction.  It checkpoints the ledger's [applied] high-water
    mark plus the corpus index length, so [run ~resume:true] after any
    kill (worker or supervisor, SIGTERM or SIGKILL) replays to a corpus,
    coverage and failure-key set byte-identical to an uninterrupted run.

    A worker death is a test outcome: a one-crash outcome offered to the
    ledger at the index the worker was running, filed in the corpus as a
    [Crash] against the synthetic ["Fleet"] system with the offending
    derived seed; the shard restarts past it under bounded exponential
    backoff.  A shard
    that dies more than [fc_max_restarts] consecutive times without
    completing a test is abandoned and the campaign returns an error
    (checkpoint intact, resumable). *)

type kind = Fuzz | Hunt

val kind_name : kind -> string
val kind_of_name : string -> (kind, string) result

type config = {
  fc_dir : string;  (** campaign directory: corpus, journal, checkpoint *)
  fc_kind : kind;
  fc_systems : Nnsmith_difftest.Systems.t list;  (** [Hunt] ignores this *)
  fc_faults : string list;  (** seeded-defect ids active campaign-wide *)
  fc_root_seed : int;
  fc_shards : int;  (** worker processes; shard [w] runs [i mod shards = w] *)
  fc_tests : int;  (** global budget: indices [\[0, tests)] *)
  fc_max_nodes : int;
  fc_binning : bool;
  fc_exe : string;  (** binary to spawn workers on (usually self) *)
  fc_argv : string list;  (** worker argv marker, e.g. [\["fleet-worker"\]] *)
  fc_heartbeat_timeout_ms : float;
      (** no frame for this long ⇒ the worker is wedged: SIGKILL, file a
          crash, restart the shard *)
  fc_checkpoint_every : int;  (** applied tests between checkpoints *)
  fc_max_restarts : int;  (** consecutive deaths before abandoning a shard *)
  fc_backoff_base_ms : float;
  fc_backoff_max_ms : float;
  fc_progress : bool;  (** live stderr progress line *)
  fc_dashboard_every_ms : float;
      (** regenerate [dashboard.html] this often; [<= 0] disables *)
  fc_stop_after_applied : int option;
      (** test hook: simulate a supervisor power cut — SIGKILL the workers
          and return without a final checkpoint once this many tests have
          been applied *)
}

val default_config : dir:string -> tests:int -> config

type summary = {
  fs_kind : kind;  (** the campaign's kind (the checkpoint's, on resume) *)
  fs_tests : int;  (** total indices applied, all sessions *)
  fs_session_tests : int;  (** applied by this invocation *)
  fs_shards : int;
  fs_verdicts : (string * int) list;
  fs_crashes : (string * int) list;
  fs_failure_keys : string list;  (** sorted, unique *)
  fs_triggered : (string * int) list;
  fs_ops : (string * (string * int) list) list;
  fs_saved : int;
  fs_dups : int;
  fs_worker_crashes : int;
  fs_restarts : int;
  fs_cov_total : int;
  fs_cov_pass : int;
  fs_elapsed_ms : float;
  fs_complete : bool;
      (** [false]: drained early (signal or simulated power cut); the
          checkpoint (if any) supports [--resume] *)
}

val fleet_system : Nnsmith_difftest.Systems.t
(** The synthetic system worker deaths are filed against; its
    [compile_and_run] raises unconditionally, so the reducer's
    still-reproduces probe deterministically fails and crash bundles are
    saved unreduced — identical bytes on every run and resume. *)

val crash_message : worker:int -> cause:string -> index:int -> string

val worker_main : unit -> unit
(** Child-process entry point: read the {!Proto.worker_config} from the
    environment, run the shard's indices through {!Pfuzz.run_one}, write
    one [Outcome] frame per test and a final [Shard_done] to fd 1, exit.
    Binaries that can act as fleet supervisors call this when their argv
    carries the worker marker. *)

val run : ?resume:bool -> config -> (summary, string) result
(** Run (or with [resume], continue) a fleet campaign.  Takes the
    directory's advisory {!Flock}; refuses to overwrite an existing
    checkpoint without [resume], and to [resume] without one.  Resuming a
    complete campaign is a successful no-op. *)
