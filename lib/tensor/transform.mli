(** Shape-changing tensor kernels: reshape, transpose, slice, pad, concat,
    tile and gather.  Each movement kernel describes its index map as one
    table per output axis and walks it with {!Shape.iter_offsets}. *)

val reshape : Nd.t -> Shape.t -> Nd.t
(** A copy under the new shape.  Element counts must match; raises
    [Invalid_argument] otherwise. *)

val transpose : Nd.t -> int array -> Nd.t
(** [transpose t perm]: [perm] must be a permutation of [0..rank-1]. *)

val slice :
  Nd.t -> starts:int array -> stops:int array -> steps:int array -> Nd.t
(** Per-axis slicing with exclusive stops and positive steps.  All three
    arrays must have length [rank t]; starts/stops are clamped to the axis
    bounds (negative values count from the end, as in ONNX). *)

type pad_mode = Constant of float | Reflect | Replicate

val pad : Nd.t -> before:int array -> after:int array -> mode:pad_mode -> Nd.t
(** Negative amounts crop.  [Reflect] mirrors without repeating the border
    and requires pad < dim; [Replicate] clamps to the edge. *)

val concat : axis:int -> Nd.t list -> Nd.t
(** All inputs share dtype, rank, and non-axis dims. *)

val squeeze : Nd.t -> int list -> Nd.t
(** Remove the given size-1 axes; an empty list removes all size-1 axes. *)

val unsqueeze : Nd.t -> int -> Nd.t
val flatten : Nd.t -> axis:int -> Nd.t
(** Collapse to 2-D [(d0*..*d(axis-1)) x (daxis*..*dn)] as in ONNX. *)

val expand : Nd.t -> Shape.t -> Nd.t
(** Alias of {!Nd.broadcast_to} with ONNX BroadcastTo semantics. *)

val tile : Nd.t -> int list -> Nd.t
(** ONNX Tile: axis [k] repeated [reps_k] times.  Raises [Invalid_argument]
    when [reps] and the rank differ. *)

val gather : axis:int -> Nd.t -> Nd.t -> Nd.t
(** [gather ~axis data indices]: ONNX Gather along [axis], output shape
    [data's dims before axis @ indices' dims @ data's dims after axis].
    Each index (read with {!Nd.to_int}) is clamped into [0, d - 1], so the
    result never depends on whether runtime values are in range. *)

(** {2 Plan-compiled index maps}

    Each [*_map] builder shares its tables with the allocating kernel above
    and returns the output shape plus the materialised
    per-output-position source-offset array that {!gather_into} (or an
    execution plan) can replay without recomputing any index arithmetic.
    They raise the same [Invalid_argument] errors as their allocating
    counterparts. *)

val transpose_map : Shape.t -> int array -> Shape.t * int array

val slice_map :
  Shape.t -> starts:int array -> stops:int array -> steps:int array ->
  Shape.t * int array

val pad_map :
  Shape.t -> before:int array -> after:int array -> mode:pad_mode ->
  Shape.t * int array * float
(** Map entries of [-1] mark fill positions; the returned float is the fill
    value. *)

val tile_map : Shape.t -> int list -> Shape.t * int array

val concat_spec : axis:int -> Shape.t list -> Shape.t * int * int array
(** [(out_shape, outer, widths)]: the output is [outer] blocks, each the
    parts' blocks in order, and part [p]'s block [o] is its [widths.(p)]
    elements from offset [o * widths.(p)].  Validates rank/axis/non-axis
    dims (but not dtypes — {!concat} checks those). *)

val concat_into :
  outer:int -> widths:int array -> Nd.t array -> dst:Nd.t -> unit
(** Destination-passing {!concat} over a {!concat_spec} geometry; the parts
    must share [dst]'s dtype. *)

val gather_into : Nd.t -> map:int array -> fill:float -> dst:Nd.t -> unit
(** Destination-passing gather over a materialised map; entry [-1] writes the
    fill value (converted per dtype as {!pad} converts it). *)
