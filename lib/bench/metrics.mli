(** Deterministic work-counter capture for benchmark experiments.

    Wall-clock on a noisy shared core needs a >15% tolerance to avoid
    flaking, which is blunt enough to wave real regressions through.  The
    quantities captured here are different: they count {e work}, not time —
    allocation words from [Gc.quick_stat] deltas and the fuzzer's own
    telemetry counters (solver checks, cache hits/misses, component solves,
    search steps, compiled-kernel runs, dirty-set recomputes, arena reuses,
    generator accept/reject tallies).  Campaigns are fixed-seed
    bit-identical, so these counters are bit-stable across runs and across
    machines, and a CI gate can demand {e exact equality} on them (and a
    ~2% band on allocation words) instead of tolerating 15% drift.

    [capture f] brackets one deterministic round: it forces a major GC so
    the minor-heap fill at entry cannot shift promotion points between
    otherwise identical runs, snapshots [Gc.quick_stat] and the current
    domain's telemetry counters, runs [f], forces another major GC so the
    closing [Gc.quick_stat] is read at a collection boundary, and returns
    the deltas.  Only
    counters under {!work_prefixes} are kept — time-driven counters
    (journal heartbeats, best-effort channel sheds) are excluded because
    they are {e not} functions of the workload. *)

type counters = {
  mc_minor_words : float;  (** words allocated in the minor heap *)
  mc_major_words : float;  (** words allocated in the major heap,
                               including promotions *)
  mc_promoted_words : float;  (** words promoted minor -> major *)
  mc_work : (string * int) list;
      (** non-zero deltas of gated telemetry counters, sorted by name *)
}

val work_prefixes : string list
(** Counter-name prefixes admitted into {!counters.mc_work}: deterministic
    work recorders only ([smt/], [gen/], [grad/], [exec/], [cov/], the
    corpus save/dedup tallies and the pool's test/failure totals).  An
    exact counter name is a valid prefix of itself. *)

val is_work_counter : string -> bool
(** Whether a counter name falls under {!work_prefixes}. *)

val capture : (unit -> 'a) -> 'a * counters
(** Run the thunk and return its result plus the work it performed.
    Telemetry recording is forced on for the duration (and restored
    afterwards).  Exceptions from the thunk propagate. *)

val alloc_words : counters -> float
(** Total words freshly allocated: [minor + major - promoted] (promoted
    words are counted in both the minor and major totals). *)

val work_diff : counters -> counters -> (string * int * int) list
(** [(name, left, right)] for every work counter whose values differ
    between the two captures; a counter absent on one side reads as [0].
    Sorted by name; [[]] means the two captures did identical work. *)

val to_json : counters -> Nnsmith_telemetry.Json.t
(** [Obj] with [minor_words]/[major_words]/[promoted_words] numbers and a
    nested [work] object, keys in sorted order. *)

val of_json : Nnsmith_telemetry.Json.t -> counters option
(** Inverse of {!to_json}; [None] when required fields are missing or
    mistyped.  Unknown extra fields are ignored (schema growth). *)
