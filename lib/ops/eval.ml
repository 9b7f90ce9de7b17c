(** The reference interpreter: concrete evaluation of every operator over
    {!Nnsmith_tensor.Nd} tensors.  This plays the role PyTorch plays in the
    paper — the trusted oracle every compiled result is compared against. *)

module Dtype = Nnsmith_tensor.Dtype
module Nd = Nnsmith_tensor.Nd
module Linalg = Nnsmith_tensor.Linalg
module Reduce = Nnsmith_tensor.Reduce
module Transform = Nnsmith_tensor.Transform
module Op = Nnsmith_ir.Op

exception Eval_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

(* Abramowitz & Stegun 7.1.26; max abs error ~1.5e-7, plenty for testing. *)
let erf x =
  let sign = if x < 0. then -1. else 1. in
  let x = Float.abs x in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  let poly =
    (((((1.061405429 *. t) -. 1.453152027) *. t +. 1.421413741) *. t
     -. 0.284496736)
     *. t
    +. 0.254829592)
    *. t
  in
  sign *. (1. -. (poly *. Float.exp (-.(x *. x))))

let gelu x = 0.5 *. x *. (1. +. erf (x /. Float.sqrt 2.))
let softplus x = if x > 30. then x else Float.log (1. +. Float.exp x)
let softsign x = x /. (1. +. Float.abs x)
let elu x = if x > 0. then x else Float.exp x -. 1.
let selu_lambda = 1.0507009873554805
let selu_alpha = 1.6732632423543772
let selu x = selu_lambda *. (if x > 0. then x else selu_alpha *. (Float.exp x -. 1.))

let hardswish x =
  if x <= -3. then 0. else if x >= 3. then x else x *. (x +. 3.) /. 6.

let hardsigmoid x = Float.max 0. (Float.min 1. ((x /. 6.) +. 0.5))

let unary_float_fn : Op.unary -> float -> float = function
  | Op.Abs -> Float.abs
  | Neg -> Float.neg
  | Exp -> Float.exp
  | Log -> Float.log
  | Log2 -> fun x -> Float.log x /. Float.log 2.
  | Sqrt -> Float.sqrt
  | Sin -> Float.sin
  | Cos -> Float.cos
  | Tan -> Float.tan
  | Asin -> Float.asin
  | Acos -> Float.acos
  | Atan -> Float.atan
  | Tanh -> Float.tanh
  | Sigmoid -> fun x -> 1. /. (1. +. Float.exp (-.x))
  | Relu -> fun x -> Float.max 0. x
  | Gelu -> gelu
  | Floor -> Float.floor
  | Ceil -> Float.ceil
  | Round -> Float.round
  | Sign -> fun x -> if x > 0. then 1. else if x < 0. then -1. else 0.
  | Reciprocal -> fun x -> 1. /. x
  | Erf -> erf
  | Softplus -> softplus
  | Softsign -> softsign
  | Elu -> elu
  | Selu -> selu
  | Hardswish -> hardswish
  | Hardsigmoid -> hardsigmoid

let unary_int_fn : Op.unary -> (int -> int) option = function
  | Op.Abs -> Some abs
  | Neg -> Some (fun x -> -x)
  | Sign -> Some (fun x -> compare x 0)
  | Exp | Log | Log2 | Sqrt | Sin | Cos | Tan | Asin | Acos | Atan | Tanh
  | Sigmoid | Relu | Gelu | Floor | Ceil | Round | Reciprocal | Erf
  | Softplus | Softsign | Elu | Selu | Hardswish | Hardsigmoid ->
      None

let binary_float_fn : Op.binary -> float -> float -> float = function
  | Op.Add -> ( +. )
  | Sub -> ( -. )
  | Mul -> ( *. )
  | Div -> ( /. )
  | Pow -> Float.pow
  | Max2 -> fun a b -> if Float.is_nan a || Float.is_nan b then Float.nan else Float.max a b
  | Min2 -> fun a b -> if Float.is_nan a || Float.is_nan b then Float.nan else Float.min a b
  | Mod2 -> Float.rem

let binary_int_fn : Op.binary -> (int -> int -> int) option = function
  | Op.Add -> Some ( + )
  | Sub -> Some ( - )
  | Mul -> Some ( * )
  | Max2 -> Some max
  | Min2 -> Some min
  | Div | Pow | Mod2 -> None

let eval (op : int Op.t) (ins : Nd.t list) : Nd.t =
  let name = Op.name op in
  match (op, ins) with
  | Op.Leaf _, _ -> fail "Leaf %s has no evaluation rule" name
  | Op.Unary u, [ x ] ->
      if Dtype.is_float (Nd.dtype x) then Nd.map_f (unary_float_fn u) x
      else begin
        match unary_int_fn u with
        | Some f -> Nd.map_i f x
        | None -> fail "%s: integer input unsupported" name
      end
  | Op.Binary b, [ x; y ] ->
      if Dtype.is_float (Nd.dtype x) then
        Nd.map2_f (Nd.dtype x) (binary_float_fn b) x y
      else begin
        match binary_int_fn b with
        | Some f -> Nd.map2_i (Nd.dtype x) f x y
        | None -> fail "%s: integer input unsupported" name
      end
  | Op.Compare Op.Equal, [ x; y ] -> Nd.cmp2 ( = ) x y
  | Op.Compare Op.Greater, [ x; y ] -> Nd.cmp2 ( > ) x y
  | Op.Compare Op.Less, [ x; y ] -> Nd.cmp2 ( < ) x y
  | Op.Logical l, [ x; y ] ->
      let f =
        match l with
        | Op.L_and -> ( && )
        | L_or -> ( || )
        | L_xor -> ( <> )
      in
      Nd.map2_b f x y
  | Op.Not, [ x ] -> Nd.map_b not x
  | Op.Clip { c_lo; c_hi }, [ x ] ->
      Nd.map_f (fun v -> Float.min c_hi (Float.max c_lo v)) x
  | Op.Leaky_relu { alpha }, [ x ] ->
      Nd.map_f (fun v -> if v >= 0. then v else alpha *. v) x
  | Op.Cast target, [ x ] -> Nd.cast x target
  | Op.Softmax { sm_axis }, [ x ] -> Reduce.softmax ~axis:sm_axis x
  | Op.Arg_max { am_axis }, [ x ] -> Reduce.argmax ~axis:am_axis x
  | Op.Arg_min { am_axis }, [ x ] -> Reduce.argmin ~axis:am_axis x
  | Op.Reduce (r, { r_axes; r_keepdims }), [ x ] -> (
      let f =
        match r with
        | Op.R_sum -> Reduce.sum
        | R_mean -> Reduce.mean
        | R_max -> Reduce.max_
        | R_min -> Reduce.min_
        | R_prod -> Reduce.prod
      in
      f ~keepdims:r_keepdims ~axes:r_axes x)
  | Op.Mat_mul, [ a; b ] -> Linalg.matmul a b
  | Op.Conv2d { stride; padding; _ }, [ x; w ] ->
      Linalg.conv2d ~stride:(stride, stride) ~padding:(padding, padding) x w
  | Op.Pool2d (kind, { p_kh; p_kw; p_stride; p_padding }), [ x ] ->
      let kind =
        match kind with Op.P_max -> Linalg.Max_pool | P_avg -> Linalg.Avg_pool
      in
      Linalg.pool2d ~kind ~kernel:(p_kh, p_kw) ~stride:(p_stride, p_stride)
        ~padding:(p_padding, p_padding) x
  | Op.Reshape dims, [ x ] -> Transform.reshape x (Array.of_list dims)
  | Op.Flatten { f_axis }, [ x ] -> Transform.flatten x ~axis:f_axis
  | Op.Transpose perm, [ x ] -> Transform.transpose x perm
  | Op.Squeeze { sq_axis }, [ x ] -> Transform.squeeze x [ sq_axis ]
  | Op.Unsqueeze { usq_axis }, [ x ] -> Transform.unsqueeze x usq_axis
  | Op.Slice { s_axis; s_start; s_stop }, [ x ] ->
      let r = Nd.rank x in
      let starts = Array.make r 0
      and stops = Array.copy (Nd.shape x)
      and steps = Array.make r 1 in
      starts.(s_axis) <- s_start;
      stops.(s_axis) <- s_stop;
      Transform.slice x ~starts ~stops ~steps
  | Op.Pad (mode, { pad_before; pad_after }), [ x ] ->
      let mode =
        match mode with
        | Op.Pad_constant v -> Transform.Constant v
        | Op.Pad_reflect -> Transform.Reflect
        | Op.Pad_replicate -> Transform.Replicate
      in
      Transform.pad x
        ~before:(Array.of_list pad_before)
        ~after:(Array.of_list pad_after)
        ~mode
  | Op.Concat { cat_axis; _ }, xs -> Transform.concat ~axis:cat_axis xs
  | Op.Where, [ c; t; f ] -> Nd.where c t f
  | Op.Expand target, [ x ] -> Nd.broadcast_to x (Array.of_list target)
  | Op.Gather { g_axis }, [ data; indices ] ->
      Transform.gather ~axis:g_axis data indices
  | Op.Tile reps, [ x ] -> Transform.tile x reps
  | _, _ -> fail "%s: wrong arity (%d inputs)" name (List.length ins)
