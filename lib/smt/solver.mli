(** An incremental constraint solver for quantifier-free integer arithmetic
    over bounded variables.

    This is the stand-in for Z3 in the paper's Algorithm 1.  The fragment it
    decides — (non)linear arithmetic over small integer shape variables — is
    solved by interval propagation (HC4-style narrowing) combined with
    bounded backtracking search.  Each solve compiles its constraint set
    once into a propagation engine (dense domains with an undo trail,
    per-node interval slots), which the search and the interval screen
    both run; its narrowing steps are those of {!Interval}'s record
    operations, which the tests use as the reference.  The search tries the lower bound of a
    domain first, so unconstrained dimensions concretise to their minimum;
    this reproduces the boundary-value model bias the paper observed in Z3
    and motivates attribute binning (Algorithm 2).

    Solving is a pure function of the constraint set: search randomness is
    derived from an alpha-renamed canonical serialization of the assertions,
    so two structurally identical (up to variable identity) constraint sets
    always solve to the same result, on any domain.  A solver keeps no
    results across solvers: what one test generates depends only on its
    own constraint sets.

    The solver keeps one state: the assertions, the model and the interval
    screen's domains.  {!try_add_constraints} writes it only when the probe
    is satisfiable, so a rejected probe needs no undo.  Two fast paths
    answer a probe without a full solve, each only when the answer
    provably matches the full solve's: the {e concrete path} extends the
    current model over the probe, and the {e interval screen} refutes a
    probe whose atoms conflict with interval over-approximations of the
    assertions. *)

type t

type result = Sat | Unsat | Unknown
(** [Unknown] means the step budget was exhausted; callers treat it as
    "cannot insert here", which is safe for generation. *)

val create : ?max_steps:int -> unit -> t
(** [max_steps] bounds the number of search-node expansions per [check]
    (default 2000).  Search randomness is content-derived (see above). *)

val assert_ : t -> Formula.t -> unit
val assert_all : t -> Formula.t list -> unit
(** Add constraints without checking satisfiability. *)

val check : t -> result
(** Decide the conjunction of all assertions; keeps the model on [Sat].
    Tries model reuse first (extend the previous model), then solves each
    connected component by interval propagation + search. *)

val try_add_constraints : t -> Formula.t list -> bool
(** The operation Algorithm 1 relies on: can the formulas (normalized via
    {!Formula.normalize}) be added?  In order, the concrete path, the
    interval screen (see above) and one full solve of the assertions and
    the formulas answer.  On [Sat] the formulas are asserted and the model
    kept; otherwise the result is [false] and the solver is left exactly
    as it was. *)

val model : t -> Model.t option
(** Model from the most recent successful [check]/[try_add_constraints]. *)

val check_steps : t -> int
(** Search-node expansions performed by the last [check] (for benchmarks).
    [0] when the probe or check was answered by model reuse or the
    screen. *)

val solve : ?max_steps:int -> Formula.t list -> Model.t option
(** One-shot convenience wrapper. *)

val cache_clear : unit -> unit
(** Drop the calling domain's memo of formula variable lists.  It holds
    no results, only lets a run start from the allocation state of a
    fresh process. *)

(** {1 Test-only}

    Not part of the solver's API: hooks for the property tests.  No module
    outside [lib/smt/solver.ml] and the tests names them; [tools/ci.sh]'s
    style stage fails if one under [lib/], [bin/], [bench/] or
    [examples/] does. *)

val set_prescreen_enabled : bool -> unit
(** Turn the interval screen on or off globally (default: on).  It is the
    only step of {!try_add_constraints} the switch governs: each solver
    keeps its screen domains (an over-approximation of the values its
    variables can take under the assertions) either way, and the concrete
    path runs either way.  When on, a probe whose propagation against the
    screen domains conflicts is rejected without a solve (definitely
    UNSAT: the solve could only have answered Unsat or Unknown, both of
    which reject the probe).  Screening is semantically invisible:
    verdicts, models and whole campaigns are bit-identical with the screen
    on or off. *)

val prescreen_enabled : unit -> bool

val prescreen_unsat : t -> Formula.t list -> bool
(** The interval screen's verdict on probing the given constraints against
    the current assertions: [true] means definitely unsatisfiable
    ({!try_add_constraints} must return [false]).  Sound, never complete —
    [false] just means the screen cannot decide.  Exposed for the
    soundness property test. *)

val propagate_for_test :
  ?rounds:int ->
  init:(Expr.var * Interval.t) list ->
  Formula.t list ->
  Formula.t list ->
  (Expr.var * int) list ->
  (Expr.var * Interval.t) list option list * int
(** [propagate_for_test ~init atoms ors pins] runs the propagation engine
    as the search does.  [atoms] are [Cmp] formulas and [ors] are [Or]
    formulas, the split a solve makes of its constraint set.  Starting
    from the domains [init] (other variables keep their declared bounds), it
    narrows to a fixpoint or the round cap ([rounds], default 64, the
    solver's), then for each [(v, n)] of [pins] in turn fixes [v] to [n] and
    narrows again.  A pin that conflicts is undone as the search backtracks:
    the next pin starts from the domains and dirty flags before it.
    Returns one entry for the first narrowing and one per pin (none after
    a first narrowing that conflicts): [None] on a conflict, otherwise the
    domains of [init]'s variables and of every variable narrowed since, in
    variable-id order; and the number of propagations stopped at the cap.
    A small [rounds] exposes the domains after each round, not only at the
    fixpoint. *)

val eval_for_test : init:(Expr.var * Interval.t) list -> Expr.t -> Interval.t
(** The engine's forward interval of a term under the domains [init]
    (other variables keep their declared bounds). *)

val components_for_test :
  max_steps:int -> Formula.t list -> (Formula.t list * Expr.var list * int) list
(** The components a {!check} on a fresh solver with these assertions
    solves, in order, each with the variable order and the rng seed of its
    search. *)
