(** The campaign engine: every fuzzing loop (CLI [fuzz]/[cov]/[hunt], the
    paper figures, the tests) runs here, sharded across worker domains via
    {!Nnsmith_parallel.Pool}.

    The NNSmith pipeline is index-pure — test [i]'s model seed and
    input-search rng derive from [Splitmix.derive ~root ~index:i] alone —
    so with a [Tests n] budget, {!fuzz} and {!hunt} produce the same
    failure set for any [jobs] value.  {!coverage}, and {!hunt} given a
    [gen_of_seed], drive stateful baseline generator streams (one
    independently seeded stream per worker): reproducible per (root,
    jobs), not jobs-independent.  Every input search is capped at
    {!Nnsmith_grad.Search.default_max_iters} iterations, so a [Time_ms]
    budget may end a campaign early but never changes what a test
    computes. *)

type failure = {
  f_system : Systems.t;
  f_generator : string;
  f_seed : int;
  f_export_bugs : string list;
  f_graph : Nnsmith_ir.Graph.t;
  f_binding : Nnsmith_ops.Runner.binding;
  f_verdict : Harness.verdict;
}
(** A failure observed by a worker, shipped over the pool's channel to
    the corpus-writer domain. *)

type msg =
  | M_failure of int * failure
  | M_event of Nnsmith_journal.Journal.event
  | M_done of int
(** What rides the pool's worker-to-writer channel: failures tagged with
    their global test index (never dropped), per-index completion markers
    (also never dropped — the sink applies failures in ascending index
    order so corpus bytes are jobs-independent), and best-effort journal
    events (worker heartbeats). *)

type outcome = {
  o_verdicts : (string * int) list;  (** sorted verdict-kind counts *)
  o_crashes : (string * int) list;  (** crash dedup-key -> count *)
  o_keys : string list;  (** failure dedup-keys, sorted *)
  o_triggered : (string * int) list;  (** seeded bug id -> hits *)
  o_ops : (string * (string * int) list) list;
      (** op kind -> verdict kind -> count, both levels sorted *)
  o_failures : failure list;  (** in emission order *)
}
(** The serializable result of running one test index — what a fleet
    worker ships over its pipe to the supervisor. *)

val run_one :
  ?attribute_semantic:bool ->
  ?generator:string ->
  ?max_nodes:int ->
  ?binning:bool ->
  systems:Systems.t list ->
  seed:int ->
  unit ->
  outcome
(** The single definition of "run test index [i]": the index-pure NNSmith
    pipeline (generate → input search → export → difftest each system)
    for one derived seed, exactly as the pool drivers run it.  With
    [attribute_semantic] (hunt mode), semantic mismatches are attributed
    to seeded defects by isolation re-runs.  Both the in-process domain
    pool and the multi-process fleet are built on this closure. *)

val verdict_name : Harness.verdict -> string
(** ["pass" | "skipped" | "semantic" | "crash"] — the journal/corpus
    verdict-kind vocabulary. *)

type point = {
  p_tests : int;  (** tests this worker has run, this one included *)
  p_total : int;  (** sites covered on this worker *)
  p_pass : int;  (** pass-file sites covered on this worker *)
  p_ms : float;  (** ms since the worker started — display only *)
}
(** One point of a coverage curve, recorded after every test. *)

type result = {
  r_stats : Nnsmith_parallel.Pool.stats;
  r_verdicts : (string * int) list;
      (** verdict kind (pass/crash/semantic/skipped/gen_fail/error) -> count *)
  r_crashes : (string * int) list;  (** crash dedup-key -> count *)
  r_failure_keys : string list;
      (** sorted unique failure dedup-keys — jobs-independent for the
          index-pure drivers *)
  r_triggered : (string * int) list;  (** seeded bug id -> hits (hunt) *)
  r_ops : (string * (string * int) list) list;
      (** op kind -> verdict kind -> count (per op occurrence per test),
          both levels sorted — jobs-independent for the index-pure
          drivers *)
  r_saved : int;  (** new corpus cases (0 without [report_dir]) *)
  r_dups : int;  (** corpus duplicates (0 without [report_dir]) *)
  r_coverage : Nnsmith_coverage.Coverage.snapshot;  (** union over workers *)
  r_curves : point list list;
      (** {!coverage} only ([\[\]] otherwise): each worker's curve, in
          worker order, one point per test, oldest first.  At [jobs = 1]
          the one curve is the campaign's; without [report_dir] its last
          point counts [r_coverage]. *)
}

(** Each driver, when given [journal], brackets the run with [Start] and
    [Op_stats]/[Coverage]/[Dropped]/[Summary] events, streams per-worker
    [Heartbeat]s (rate-limited on the worker, delivered best-effort), and
    has the corpus emit a [Bug] event per save/duplicate — all written by
    the calling domain only. *)

val fuzz :
  ?jobs:int ->
  ?journal:Nnsmith_journal.Journal.t ->
  ?report_dir:string ->
  ?max_nodes:int ->
  ?binning:bool ->
  ?systems:Systems.t list ->
  root_seed:int ->
  budget:Nnsmith_parallel.Pool.budget ->
  unit ->
  result
(** Sharded NNSmith differential-testing campaign.  Workers inherit the
    fault set active on the calling domain.  With [report_dir], failures
    are minimized and saved to the persistent corpus by the calling
    domain only (single writer). *)

val coverage :
  ?jobs:int ->
  ?journal:Nnsmith_journal.Journal.t ->
  ?report_dir:string ->
  ?generator:string ->
  system:Systems.t ->
  root_seed:int ->
  budget:Nnsmith_parallel.Pool.budget ->
  gen_of_seed:(int -> Generators.t) ->
  unit ->
  result
(** Sharded coverage campaign of a generator stream against one system.
    Resets coverage first; worker hit-tables are unioned into the calling
    domain at join and returned as [r_coverage], and each worker's
    per-test coverage is returned as its curve in [r_curves].
    [generator] only labels the journal's [Start] event. *)

val hunt :
  ?jobs:int ->
  ?journal:Nnsmith_journal.Journal.t ->
  ?report_dir:string ->
  ?max_nodes:int ->
  ?generator:string ->
  ?gen_of_seed:(int -> Generators.t) ->
  root_seed:int ->
  budget:Nnsmith_parallel.Pool.budget ->
  unit ->
  result
(** Sharded seeded-bug hunt with every catalogued defect active;
    [r_triggered] tallies defect attributions (crashes by message id,
    semantic mismatches by isolation re-runs).  Without [gen_of_seed] it
    runs the index-pure NNSmith pipeline; with it, each worker draws its
    models from its own stream, as in {!coverage}.  [generator] (default
    ["NNSmith"]) labels the journal's [Start] event. *)
