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
    computes.

    A test produces one {!outcome}.  Every campaign, in worker domains here
    or in the processes of [Nnsmith_fleet.Fleet], folds its outcomes
    through one {!Ledger}, in test-index order. *)

type failure = {
  f_system : Systems.t;
  f_generator : string;
  f_seed : int;
  f_export_bugs : string list;
  f_graph : Nnsmith_ir.Graph.t;
  f_binding : Nnsmith_ops.Runner.binding;
  f_verdict : Harness.verdict;
}
(** A failure observed by a worker, shipped in its test's {!outcome} to
    the corpus-writing domain or process. *)

type outcome = {
  o_verdicts : (string * int) list;  (** sorted verdict-kind counts *)
  o_crashes : (string * int) list;  (** crash dedup-key -> count *)
  o_keys : string list;  (** failure dedup-keys, sorted *)
  o_triggered : (string * int) list;  (** seeded bug id -> hits *)
  o_ops : (string * (string * int) list) list;
      (** op kind -> verdict kind -> count, both levels sorted *)
  o_failures : failure list;  (** in emission order *)
}
(** The serializable result of running one test index — what a pool
    worker sends over its channel and a fleet worker over its pipe. *)

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

(** The one fold from per-index outcomes to campaign state.  Outcomes may
    be offered in any order; each is applied — tallied, its failures saved
    to the corpus ([Report.save_failure]) or, journaling without a
    corpus, recorded as journal [Bug] events — only once every lower index
    has been applied, so index.jsonl bytes and the first-vs-duplicate
    split do not depend on the schedule.  ['a] is a caller payload handed
    back when its index is applied. *)
module Ledger : sig
  type totals = {
    t_verdicts : (string * int) list;
        (** verdict kind (pass/crash/semantic/skipped/gen_fail/error) -> count *)
    t_crashes : (string * int) list;  (** crash dedup-key -> count *)
    t_keys : string list;  (** sorted unique failure dedup-keys *)
    t_triggered : (string * int) list;  (** seeded bug id -> hits *)
    t_ops : (string * (string * int) list) list;
        (** op kind -> verdict kind -> count, both levels sorted *)
    t_saved : int;  (** new corpus cases *)
    t_dups : int;  (** corpus duplicates *)
  }
  (** A campaign's tallies over its applied outcomes. *)

  type 'a t

  val create :
    ?journal:Nnsmith_journal.Journal.t ->
    ?report_dir:string ->
    ?from:int * totals ->
    unit ->
    'a t
  (** A ledger that saves failures to the corpus in [report_dir], opened
      with [journal] (which then receives the corpus's [Bug] events);
      without [report_dir], failures become [journal] [Bug] events only.
      [from] resumes a checkpointed campaign: indices below it are already
      applied, with these totals. *)

  val offer : 'a t -> int -> outcome -> 'a -> unit
  (** [offer l i o x] buffers outcome [o] of test index [i] with payload
      [x].  An index already applied or already offered is ignored. *)

  val apply_next : 'a t -> 'a option
  (** Apply the outcome at index {!applied}, if it has been offered, and
      return its payload; [None] leaves the ledger unchanged. *)

  val flush : 'a t -> 'a list
  (** Apply every buffered outcome in ascending index order, across the
      gaps a time budget leaves; returns their payloads in that order. *)

  val applied : 'a t -> int
  (** One past the last applied index: without {!flush}, indices
      [\[0, applied)] are exactly the applied ones. *)

  val totals : 'a t -> totals

  val journal_finish :
    Nnsmith_journal.Journal.t ->
    tests:int ->
    tests_per_sec:float ->
    coverage:Nnsmith_coverage.Coverage.snapshot ->
    totals ->
    unit
  (** A campaign's closing [Op_stats] (when any op ran), [Coverage] and
      [Summary] journal events. *)
end

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
    {!Ledger.journal_finish}'s events, streams per-worker [Heartbeat]s
    (rate-limited on the worker, riding its test's message), and has the
    corpus emit a [Bug] event per save/duplicate — all written by the
    calling domain only. *)

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
