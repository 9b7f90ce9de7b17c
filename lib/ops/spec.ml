(** The operator-specification framework of §3.1.

    A {!template} is the symbolic description of one operator kind: which
    input dtype/rank signatures it accepts (the cheap "type matching" filter
    of Algorithm 1), and how to build a symbolic {!instance} — the operator
    with symbolic attributes, its [requires] constraints and its output type
    obtained from the type-transfer function.

    Discrete choices (ranks, axes, permutations, broadcast patterns, dtypes)
    are resolved with the supplied RNG at instantiation time; dimension
    magnitudes stay symbolic and are later solved, exactly as in the paper
    where ranks are concrete and shapes symbolic. *)

module Expr = Nnsmith_smt.Expr
module Formula = Nnsmith_smt.Formula
module Dtype = Nnsmith_tensor.Dtype
module Op = Nnsmith_ir.Op
module Sym = Nnsmith_ir.Ttype.Sym

type instance = {
  op : Expr.t Op.t;
  requires : Formula.t list;  (** the spec's [requires] clauses *)
  out_type : Sym.t;  (** from the type-transfer function *)
  extra_inputs : Sym.t list;
      (** weight-like operands the generator must materialise as fresh
          placeholders and append to the matched inputs (e.g. Conv2d's
          kernel); empty for most operators *)
}

type signature = (Dtype.t * int) list
(** Dtype and rank of each would-be input, used for type matching. *)

type template = {
  t_name : string;
  t_arity : int;  (** number of matched inputs (excludes [extra_inputs]) *)
  accepts : signature -> bool;
      (** the type-matching heuristic: dtypes/ranks only, no solving *)
  forward : Random.State.t -> Sym.t list -> instance option;
      (** instantiate with existing tensors as inputs (forward insertion);
          [None] when the discrete choice fails *)
  backward : (Random.State.t -> Sym.t -> (instance * Sym.t list) option) option;
      (** instantiate to *produce* a given placeholder type (backward
          insertion); returns the instance and the input placeholder types
          to create.  [None] when the template does not support backward
          insertion. *)
}

let instance ?(requires = []) ?(extra_inputs = []) op out_type =
  { op; requires; out_type; extra_inputs }

(* Helpers shared by the template definitions. *)

let pick rng xs =
  match xs with
  | [] -> invalid_arg "Spec.pick: empty"
  | _ -> List.nth xs (Random.State.int rng (List.length xs))

let fresh_dims rng ~prefix n =
  ignore rng;
  List.init n (fun i -> Expr.fresh (Printf.sprintf "%s%d" prefix i))

let dims_positive dims = List.map (fun d -> Formula.(Expr.one <= d)) dims

(** Output-shape sanity constraints of Algorithm 1 line 4. *)
let out_positive (t : Sym.t) = dims_positive t.dims
