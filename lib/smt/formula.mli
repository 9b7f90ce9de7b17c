(** Logical constraints over {!Expr} terms.

    Operator [requires] clauses and type-matching conditions are expressed as
    formulas; the solver decides their satisfiability. *)

type cmp = Eq | Ne | Le | Lt

type t =
  | True
  | False
  | Cmp of cmp * Expr.t * Expr.t
  | And of t list
  | Or of t list
  | Not of t

val tt : t
val ff : t
val ( = ) : Expr.t -> Expr.t -> t
val ( <> ) : Expr.t -> Expr.t -> t
val ( <= ) : Expr.t -> Expr.t -> t
val ( < ) : Expr.t -> Expr.t -> t
val ( >= ) : Expr.t -> Expr.t -> t
val ( > ) : Expr.t -> Expr.t -> t
(** Comparison constructors.  [>=]/[>] normalise to flipped [<=]/[<]. *)

val and_ : t list -> t
val or_ : t list -> t
val not_ : t -> t
(** Smart constructors: flatten nested conjunction/disjunction and fold
    trivially-true/false children. *)

val conj : t -> t -> t
val disj : t -> t -> t

val in_range : Expr.t -> lo:int -> hi:int -> t
(** [in_range e ~lo ~hi] is [lo <= e && e <= hi]. *)

val all_positive : Expr.t list -> t
(** Every expression is [>= 1]; used for output-shape sanity (Algorithm 1,
    line 4). *)

val atoms : t -> (cmp * Expr.t * Expr.t) list
(** All comparison atoms, ignoring polarity; used for heuristics. *)

val vars : t -> Expr.var list
(** Distinct variables in id order. *)

val eval : (Expr.var -> int) -> t -> bool
(** Evaluate under a complete assignment.  Division by zero inside an atom
    makes that atom false rather than raising. *)

val compare : t -> t -> int
val equal : t -> t -> bool
(** Structural comparison. *)

val normalize : t list -> t list
(** Stable normal form of a constraint set interpreted as a conjunction:
    nested [And]s flattened, [tt] members dropped, duplicates removed,
    members sorted structurally; any [ff] member collapses the whole set to
    [\[ff\]].  Sets describing the same conjunction normalize identically,
    so the solver's answer to a probe does not depend on the order of its
    formulas. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
