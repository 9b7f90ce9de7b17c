(** Symbolic integer expressions.

    Operator specifications describe tensor shapes and attributes with these
    expressions; the {!Solver} assigns concrete integers to the variables.
    This is the OCaml stand-in for the integer-arithmetic fragment of Z3 the
    paper relies on. *)

(** A symbolic integer variable.  [lo]/[hi] give the variable's default
    domain, refined later by constraints. *)
type var = private {
  id : int;  (** unique, allocation order *)
  name : string;  (** human-readable, used in printing *)
  lo : int;  (** default domain lower bound *)
  hi : int;  (** default domain upper bound *)
}

type t =
  | Const of int
  | Var of var
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t  (** floor division; solver additionally requires divisor <> 0 *)
  | Mod of t * t
  | Neg of t
  | Min of t * t
  | Max of t * t

val fresh : ?lo:int -> ?hi:int -> string -> t
(** [fresh name] allocates a new variable.  The default domain is
    [\[dim_min, dim_max\]] = [\[1, 65536\]], suitable for tensor dimensions. *)

val fresh_var : ?lo:int -> ?hi:int -> string -> var
(** Like {!fresh} but returns the variable record itself. *)

val dim_min : int
val dim_max : int
(** Default domain bounds for dimension-like variables. *)

val int : int -> t
(** [int n] is [Const n]. *)

val zero : t
val one : t

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( mod ) : t -> t -> t
(** Smart constructors: fold constants and apply unit/zero laws eagerly, so
    that expressions stay small during incremental generation.  Every term a
    smart constructor builds is hash-consed (see {!intern}), so structurally
    equal results are physically shared within a domain. *)

val neg : t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t

val product : t list -> t
(** Product of a list; [product \[\]] is [one].  Used for element counts. *)

val sum : t list -> t

val vars : t -> var list
(** All distinct variables occurring in the expression, in id order. *)

val is_const : t -> int option

val eval : (var -> int) -> t -> int
(** Evaluate under an assignment.  Division/modulo by zero raise
    [Division_by_zero]; floor semantics match the solver's. *)

val fdiv : int -> int -> int
val cdiv : int -> int -> int
val fmod : int -> int -> int
(** Floor division, ceiling division and floor modulo on concrete ints
    ([fdiv (-7) 2 = -4], [cdiv (-7) 2 = -3], [fmod (-7) 2 = 1]), each with
    one hardware division.  Division by zero raises [Division_by_zero]. *)

val intern : t -> t
(** [intern e] returns the canonical (hash-consed) representative of [e] for
    the current domain: structurally equal interned terms are physically
    equal, making {!equal}/{!compare} O(1) on shared terms.  The intern
    tables are domain-local — terms are never shared across domains, and
    worker domains never contend — and bounded: past a fixed capacity they
    are dropped wholesale and sharing restarts.  Smart constructors intern
    automatically; call this only for terms built with raw constructors. *)

val id : t -> int
(** Unique id of [intern e] within the current domain (allocation order).
    Interns [e] if it has not been seen yet. *)

val hash : t -> int
(** O(1) hash consistent with structural equality on a single domain
    (equal to {!id} of the canonical representative). *)

val hc_clear : unit -> unit
(** Drop the current domain's intern tables and restart both the intern id
    sequence and the global fresh-variable counter.  For deterministic
    measurement harnesses only: back-to-back fixed-seed runs separated by a
    call allocate identically (table growth and variable ids realign run to
    run).  Callers must first clear every cache keyed by interned terms or
    variable ids (solver caches, plan pools) — stale entries from before
    the clear would alias fresh terms. *)

val compare : t -> t -> int

val equal : t -> t -> bool
(** [compare]/[equal]: structural comparison with a physical-equality fast
    path — O(1) whenever both terms were built by smart constructors on the
    same domain. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
