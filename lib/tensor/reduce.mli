(** Reduction kernels: sum/mean/prod/max/min, argmax/argmin, softmax.

    NaN propagates through all float reductions; [argmax]/[argmin] treat NaN
    as the extreme value (first occurrence wins), matching the numpy/ONNX
    behaviour the paper's ArgMax discussion relies on. *)

type plan
(** Precompiled reduction geometry for one (source shape, axes, keepdims)
    combination: per-output-cell base offsets plus per-window-element offset
    deltas.  Applying a plan folds the window in the same order as the
    allocating entry points, so results are bit-identical. *)

val plan : axes:int list -> keepdims:bool -> Shape.t -> plan
(** Raises [Invalid_argument] on out-of-range axes.  An empty axis list
    reduces all axes. *)

val out_shape : plan -> Shape.t

val offsets : plan -> int array * int array
(** The plan's geometry: each output cell's base offset in the source, and
    the offset deltas of its window's elements in folding order. *)

val sum_into : plan -> Nd.t -> dst:Nd.t -> unit
(** Destination-passing float reductions; the source must be a float tensor
    whose shape the plan was built for, and [dst] must have the plan's output
    shape. *)

val mean_into : plan -> Nd.t -> dst:Nd.t -> unit
val prod_into : plan -> Nd.t -> dst:Nd.t -> unit
val max_into : plan -> Nd.t -> dst:Nd.t -> unit
val min_into : plan -> Nd.t -> dst:Nd.t -> unit

val sum : ?keepdims:bool -> axes:int list -> Nd.t -> Nd.t
(** Works for float and integer tensors; an empty axis list reduces all
    axes. *)

val mean : ?keepdims:bool -> axes:int list -> Nd.t -> Nd.t
(** Float tensors only. *)

val prod : ?keepdims:bool -> axes:int list -> Nd.t -> Nd.t
val max_ : ?keepdims:bool -> axes:int list -> Nd.t -> Nd.t
val min_ : ?keepdims:bool -> axes:int list -> Nd.t -> Nd.t

val argmax : ?keepdims:bool -> axis:int -> Nd.t -> Nd.t
(** Result dtype is I64. *)

val argmin : ?keepdims:bool -> axis:int -> Nd.t -> Nd.t

val softmax : axis:int -> Nd.t -> Nd.t
(** Numerically-stabilised (max-shifted) softmax over one axis; float
    tensors only. *)
