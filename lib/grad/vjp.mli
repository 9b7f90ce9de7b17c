(** Compiled vector-Jacobian products for every differentiable operator,
    with the §3.3 proxy derivatives for operators that are non-differentiable
    (Floor, Ceil, Round, Sign) or have zero-gradient regions (Relu, Clip, the
    saturated arms of Hardswish/Hardsigmoid).

    A VJP is compiled once for its operands' dtypes and shapes; running it
    reads the forward values' payloads directly and writes each input's
    gradient into a caller-owned F64 buffer, allocating nothing. *)

val proxy_alpha : float
(** Magnitude of proxy derivatives; kept small as for LeakyReLU. *)

type t = {
  grads : bool array;
      (** per input: does it receive a gradient?  [false] for non-float
          operands, conditions, indices and every non-differentiable
          operator. *)
  run :
    gout:Nnsmith_tensor.Nd.farray ->
    Nnsmith_tensor.Nd.t array ->
    Nnsmith_tensor.Nd.t ->
    Nnsmith_tensor.Nd.farray array ->
    unit;
      (** [run ~gout ins out dsts]: given the output cotangent [gout] and
          the forward input and output values (of the compiled dtypes and
          shapes), overwrite [dsts.(k)] — an F64 buffer of input [k]'s
          element count — with the gradient of [gout . op ins] w.r.t. input
          [k], for every [k] with [grads.(k)].  Entries for other inputs are
          not touched. *)
}

val compile :
  proxy:bool ->
  int Nnsmith_ir.Op.t ->
  ins:(Nnsmith_tensor.Dtype.t * Nnsmith_tensor.Shape.t) array ->
  out:Nnsmith_tensor.Dtype.t * Nnsmith_tensor.Shape.t ->
  t
(** Resolve the operator's index arithmetic for these operand and output
    types.  [proxy:false] selects the true derivatives (the paper's
    "Gradient (no proxy)" ablation).  Raises [Invalid_argument] for
    operand shapes the operator cannot take. *)
