(** Concrete tensor shapes and index arithmetic (row-major). *)

type t = int array

val scalar : t
(** Rank-0 shape. *)

val rank : t -> int
val numel : t -> int
(** Product of dimensions; 1 for scalars. *)

val equal : t -> t -> bool
val strides : t -> int array
(** Row-major strides; stride of a size-1 trailing dim is 1. *)

val ravel : t -> int array -> int
(** Multi-index to linear offset.  No bounds check.  A per-element
    reference formula: kernels walk index maps with {!iter_offsets}. *)

val unravel : t -> int -> int array
(** Linear offset to multi-index; the inverse of {!ravel}. *)

val iter_offsets : t -> int array array -> (int -> int -> unit) -> unit
(** The index engine.  [iter_offsets s tables f] calls [f i off] for every
    position [i] of [s] in row-major order, where [tables.(k).(c)] is the
    source offset that coordinate [c] on axis [k] contributes and [off] is
    the sum of the entries at [i]'s coordinates, or [-1] when any of them
    is negative (a fill).  Amortised O(1) integer work and no allocation
    per position.  Raises [Invalid_argument] when there is not one table
    per axis or a table is shorter than its axis. *)

val offsets : t -> int array array -> int array
(** {!iter_offsets} materialised: element [i] is position [i]'s offset. *)

val strided_tables : t -> int array array
(** One table per axis of [s] with entry [c * stride]: under
    {!iter_offsets} they give every position its own offset, and a
    permutation or selection of them walks [s] in another order. *)

val broadcast : t -> t -> t option
(** Numpy-style broadcast of two shapes; [None] when incompatible. *)

val broadcast_many : t list -> t option

val can_broadcast_to : src:t -> dst:t -> bool
(** Whether [src] broadcasts to exactly [dst]. *)

val validate : t -> bool
(** All dimensions >= 1. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val of_list : int list -> t
val to_list : t -> int list
