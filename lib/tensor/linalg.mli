(** Linear-algebra kernels: batched matmul, 2-D convolution, 2-D pooling.
    All operate on float tensors in NCHW layout. *)

val matmul : Nd.t -> Nd.t -> Nd.t
(** Numpy semantics: rank-1 operands are promoted (prepended/appended a unit
    dim that is squeezed from the result); leading batch dims broadcast.
    Raises [Invalid_argument] on contraction-size mismatch. *)

val matmul_into : dst:Nd.t -> Nd.t -> Nd.t -> unit
(** Destination-passing matmul core: both operands must already be rank >= 2
    and [dst] must have the broadcast result shape and the left operand's
    dtype.  [matmul] delegates here, so both entry points compute identical
    bits. *)

val conv2d :
  ?bias:Nd.t -> stride:int * int -> padding:int * int -> Nd.t -> Nd.t -> Nd.t
(** [conv2d ~stride ~padding input weight] with input [n,c,h,w] and weight
    [f,c,kh,kw]; output [n,f,oh,ow] where [oh = (h + 2*ph - kh) / sh + 1].
    Each output sums its in-bounds taps channel by channel, row by row,
    starting from the bias (or +0.0), and rounds to the input dtype once. *)

val conv2d_dims :
  stride:int * int ->
  padding:int * int ->
  Nd.t ->
  Nd.t ->
  int * int * int * int * int * int * int * int * int
(** [(n, c, h, w, f, kh, kw, oh, ow)] after the full validation [conv2d]
    performs (raising the same errors) — lets a plan compiler check the
    output geometry before allocating a destination. *)

val conv2d_into :
  ?bias:Nd.t ->
  stride:int * int ->
  padding:int * int ->
  dst:Nd.t ->
  Nd.t ->
  Nd.t ->
  unit
(** Destination-passing {!conv2d}; [dst] must be the [n,f,oh,ow] output
    tensor with the input's dtype.  The loop visits only the clipped window
    of each output, so a kernel much wider than the input costs nothing
    extra. *)

type pool_kind = Max_pool | Avg_pool

val pool2d :
  kind:pool_kind ->
  kernel:int * int ->
  stride:int * int ->
  padding:int * int ->
  Nd.t ->
  Nd.t
(** 2-D pooling over NCHW input.  [Avg_pool] excludes padding from the
    divisor (ONNX [count_include_pad = 0]); [Max_pool] ignores padded
    cells. *)

val pool2d_dims :
  kernel:int * int ->
  stride:int * int ->
  padding:int * int ->
  Nd.t ->
  int * int * int * int * int * int
(** [(n, c, h, w, oh, ow)] after [pool2d]'s validation. *)

val pool2d_into :
  kind:pool_kind ->
  kernel:int * int ->
  stride:int * int ->
  padding:int * int ->
  dst:Nd.t ->
  Nd.t ->
  unit
(** Destination-passing {!pool2d}; [dst] must be the [n,c,oh,ow] output
    tensor with the input's dtype. *)

val avg_pool2d_include_pad :
  kernel:int * int ->
  stride:int * int ->
  padding:int * int ->
  Nd.t ->
  Nd.t
(** Average pooling that counts padded cells as zeros (ONNX
    [count_include_pad = 1]): the divisor counts the window's cells inside
    the padded extent, which is [kh * kw] whenever [kh <= d + 2p] on both
    axes.  Bit-identical to zero-padding the input with {!Transform.pad}
    and pooling it with padding [(0, 0)], without building the padded
    copy. *)
