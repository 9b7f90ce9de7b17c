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
    that expressions stay small during incremental generation. *)

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

val hc_clear : unit -> unit
(** Restart the process-global fresh-variable counter, so the next
    {!fresh_var} mints id 1.  For deterministic measurement harnesses only:
    back-to-back fixed-seed runs separated by a call mint the same variable
    ids.  Callers must first clear every memo that holds variables (the
    solver's, via [Solver.cache_clear]): a variable minted before the reset
    would share its id with one minted after. *)

val compare : t -> t -> int

val equal : t -> t -> bool
(** [compare]/[equal]: structural comparison. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
