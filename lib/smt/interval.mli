(** Closed integer intervals with saturating arithmetic.

    The solver narrows variable domains with these; bounds are clamped to
    [+-big] so that products of large dimensions cannot overflow native
    ints. *)

type t = private { lo : int; hi : int }
(** Invariant: [lo <= hi].  Empty intervals are represented as [None] at use
    sites. *)

val big : int
(** Magnitude at which bounds saturate. *)

val make : int -> int -> t
(** [make lo hi] clamps both bounds; raises [Invalid_argument] if
    [lo > hi]. *)

val make_opt : int -> int -> t option
(** Like {!make} but returns [None] when empty. *)

val top : t
val point : int -> t
val is_point : t -> int option
val mem : int -> t -> bool
val width : t -> int
(** [hi - lo], saturating. *)

val inter : t -> t -> t option
val hull : t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t

val div : t -> t -> t
(** Floor-division bounds.  When the divisor interval contains 0 the result
    is conservatively {!top}. *)

val rem : t -> t -> t
(** Floor-modulo bounds, conservative. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Abstract evaluation}

    The shared abstract semantics behind the solver's HC4 propagation and
    the candidate pre-screening layer.  [lookup] supplies the interval of
    each variable (typically its current narrowed domain, falling back to
    the declared [lo]/[hi] bounds); over-approximating lookups yield
    over-approximating results, which is the soundness property the screen
    relies on: a {!F} verdict under sound domains proves the formula has no
    model within them. *)

val eval_expr : lookup:(Expr.var -> t) -> Expr.t -> t
(** Forward interval evaluation of an expression. *)

(** Forward intervals of every subterm, in the shape of the expression:
    [Leaf] for a constant or a variable, [Unary] for [Neg], [Binary] for
    the two-operand constructors, each holding its subterm's interval
    first. *)
type tree = Leaf of t | Unary of t * tree | Binary of t * tree * tree

val tree_value : tree -> t
(** The interval at the root of a tree. *)

val eval_tree : lookup:(Expr.var -> t) -> Expr.t -> tree
(** {!eval_expr} that keeps every subterm's interval:
    [tree_value (eval_tree ~lookup e) = eval_expr ~lookup e], built from
    the same per-constructor steps.  The solver's narrowing reads the
    children's intervals from it instead of re-evaluating them. *)

type tv = T | F | U
(** Three-valued formula verdict: definitely true, definitely false,
    unknown. *)

val eval_formula : lookup:(Expr.var -> t) -> Formula.t -> tv
(** Three-valued evaluation of a formula under interval domains.  [T]/[F]
    mean every assignment within the domains satisfies/falsifies the
    formula; [U] means the intervals cannot decide. *)
