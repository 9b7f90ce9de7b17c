(** An incremental constraint solver for quantifier-free integer arithmetic
    over bounded variables.

    This is the stand-in for Z3 in the paper's Algorithm 1.  The fragment it
    decides — (non)linear arithmetic over small integer shape variables — is
    solved by interval propagation (HC4-style narrowing) combined with
    bounded backtracking search.  The search tries the lower bound of a
    domain first, so unconstrained dimensions concretise to their minimum;
    this reproduces the boundary-value model bias the paper observed in Z3
    and motivates attribute binning (Algorithm 2).

    Solving is a pure function of the constraint set: search randomness is
    derived from an alpha-renamed canonical serialization of the assertions,
    so two structurally identical (up to variable identity) constraint sets
    always solve to the same result, on any domain.  This purity backs a
    two-level solve cache:

    - an {e L1 frame cache} per solver, keyed by (frame-stack state, probed
      constraints), that short-circuits repeated {!try_add_constraints}
      probes against the same graph state; and
    - an {e L2 canonical cache} per domain — a bounded LRU keyed by the
      canonical serialization — that short-circuits isomorphic solves across
      solvers, tests and campaign shards.  Tables are domain-local, so
      parallel-pool workers never contend.

    Caching is semantically invisible: with the cache on or off, the same
    campaign produces bit-identical models, verdicts and failure keys. *)

type t

type result = Sat | Unsat | Unknown
(** [Unknown] means the step budget was exhausted; callers treat it as
    "cannot insert here", which is safe for generation. *)

val create : ?max_steps:int -> ?seed:int -> unit -> t
(** [max_steps] bounds the number of search-node expansions per [check]
    (default 2000).  [seed] is accepted for compatibility but no longer
    influences results: search randomness is content-derived (see above). *)

val push : t -> unit
val pop : t -> unit
(** Assertion frames, as in SMT-LIB. [pop] on an empty stack raises
    [Invalid_argument]. *)

val assert_ : t -> Formula.t -> unit
val assert_all : t -> Formula.t list -> unit
(** Add constraints without checking satisfiability. *)

val assertions : t -> Formula.t list
(** All currently asserted formulas. *)

val check : t -> result
(** Decide the conjunction of all assertions; caches the model on [Sat].
    Consults, in order: model reuse (extend the previous model — always on),
    the L2 canonical cache, and finally interval propagation + search. *)

val try_add_constraints : t -> Formula.t list -> bool
(** The operation Algorithm 1 relies on: tentatively assert the formulas
    (normalized via {!Formula.normalize}) and check; on [Sat] they are kept
    (and the model cached), otherwise the solver state is rolled back and
    the result is [false].  Outcomes are memoized in the solver's L1 frame
    cache, so re-probing the same constraints against the same frame state
    is a table lookup. *)

val model : t -> Model.t option
(** Model from the most recent successful [check]/[try_add_constraints]. *)

val check_steps : t -> int
(** Search-node expansions performed by the last [check] (for benchmarks).
    [0] when the check was answered by model reuse or a cache hit. *)

val solve : ?max_steps:int -> ?seed:int -> Formula.t list -> Model.t option
(** One-shot convenience wrapper. *)

(** {1 Solve cache control}

    The L2 cache is per-domain; capacity/stats/clear act on the calling
    domain's table.  The enable flag is global so one switch (the CLI's
    [--no-solver-cache]) governs every worker domain. *)

val set_cache_enabled : bool -> unit
(** Enable/disable both cache levels globally (default: enabled).  Model
    reuse stays on either way — results are bit-identical in both modes,
    only the time to produce them changes. *)

val cache_enabled : unit -> bool

val set_prescreen_enabled : bool -> unit
(** Enable/disable the constraint pre-screening layer globally (default:
    enabled; the CLI's [--no-prescreen]).  When on, each solver maintains
    interval screen domains — an over-approximation of the values its
    variables can take under the current assertions — and answers a
    {!try_add_constraints} probe without entering the check machinery
    whenever the answer is forced: either the cached model extends over the
    probe (the concrete fast path — same model and state as the reuse step
    of a full check), or interval propagation of the probe against the
    screen domains conflicts (definitely-UNSAT — the solve could only have
    answered Unsat/Unknown, both of which reject the probe).  Screening is
    semantically invisible: verdicts, models and whole campaigns are
    bit-identical with the screen on or off. *)

val prescreen_enabled : unit -> bool

val prescreen_unsat : t -> Formula.t list -> bool
(** The interval screen's verdict on probing the given constraints against
    the current assertions: [true] means definitely unsatisfiable
    ({!try_add_constraints} must return [false]).  Sound, never complete —
    [false] just means the screen cannot decide.  Exposed for the
    soundness property test. *)

val screen_interval : t -> Expr.t -> int * int
(** Bounds of an expression under the screen domains of the current
    assertion set (declared variable bounds when nothing narrowed them).
    The generator's per-op feasibility memo keys on these. *)

val set_cache_capacity : int -> unit
(** Resize the calling domain's L2 LRU (default 4096 entries), evicting
    least-recently-used entries if needed. *)

type cache_stats = {
  cs_size : int;  (** live entries in this domain's L2 table *)
  cs_capacity : int;
  cs_hits : int;  (** L1 + L2 hits recorded on this domain *)
  cs_misses : int;  (** full solves recorded on this domain *)
  cs_evictions : int;
}

val cache_stats : unit -> cache_stats
val cache_clear : unit -> unit
(** Drop the calling domain's L2 entries and reset its stats. *)

(** {1 Test-only}

    Not part of the solver's API: an entry point for the property test that
    checks the propagation loop against a plain full-sweep reference. *)

val propagate_for_test :
  ?rounds:int ->
  init:(Expr.var * Interval.t) list ->
  Formula.t list ->
  Formula.t list ->
  (Expr.var * int) list ->
  (Expr.var * Interval.t) list option * int
(** [propagate_for_test ~init atoms ors pins] runs the propagation loop as
    one path of the search does.  [atoms] are [Cmp] formulas and [ors] are
    [Or] formulas, the split a solve makes of its constraint set.  Starting
    from the domains [init] (other variables keep their declared bounds), it
    narrows to a fixpoint or the round cap ([rounds], default 64, the
    solver's), then for each [(v, n)] of [pins] in turn fixes [v] to [n] and
    narrows again.  Returns the final domains in variable-id order, [None]
    on a conflict, and the number of propagations stopped at the cap.  A
    small [rounds] exposes the domains after each round, not only at the
    fixpoint. *)
