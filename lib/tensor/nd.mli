(** Dense row-major NDArrays over {!Dtype} elements.

    The representation is exposed so the kernel modules ({!Linalg},
    {!Transform}, {!Reduce}) in this library can operate on raw buffers;
    client code should treat values as immutable and build them through the
    constructors here. *)

type farray = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Unboxed float storage: a flat 64-bit Bigarray outside the OCaml heap.
    F32 tensors also store float64 elements, rounded through
    [Dtype.round_f32] at every write site. *)

type data = F of farray | I of int array | B of bool array

type t = { dtype : Dtype.t; shape : Shape.t; data : data }

val empty_f : farray
(** A shared zero-length float buffer, for shape/dtype-only phantom
    tensors that are never read element-wise. *)

val create : Dtype.t -> Shape.t -> t
(** Zero-initialised. *)

val init_f : Dtype.t -> Shape.t -> (int -> float) -> t
(** Float tensor from a linear-index generator; values are normalised to the
    dtype's precision.  Raises [Invalid_argument] on non-float dtypes. *)

val init_i : Dtype.t -> Shape.t -> (int -> int) -> t
val init_b : Shape.t -> (int -> bool) -> t

val full_f : Dtype.t -> Shape.t -> float -> t
val full_i : Dtype.t -> Shape.t -> int -> t
val full_b : Shape.t -> bool -> t

val scalar_f : Dtype.t -> float -> t
val scalar_i : Dtype.t -> int -> t
val scalar_b : bool -> t

val of_floats : Dtype.t -> Shape.t -> float array -> t
(** Copies and normalises. Length must equal [Shape.numel]. *)

val of_ints : Dtype.t -> Shape.t -> int array -> t

val numel : t -> int
val rank : t -> int
val dtype : t -> Dtype.t
val shape : t -> Shape.t
val copy : t -> t

val get_f : t -> int -> float
(** Linear read of a float tensor. *)

val set_f : t -> int -> float -> unit
val get_i : t -> int -> int
val set_i : t -> int -> int -> unit
val get_b : t -> int -> bool
val set_b : t -> int -> bool -> unit

val to_float : t -> int -> float
(** Linear read of any dtype as float (bool reads as 0/1). *)

val to_int : t -> int -> int
(** Linear read of any dtype as int (floats truncate toward zero; NaN reads
    as 0). *)

val float_data : t -> farray
(** Underlying buffer of a float tensor (shared, not copied).
    Raises [Invalid_argument] otherwise. *)

val float_array : t -> float array
(** Copy of a float tensor's elements as a boxed [float array] — the
    boundary accessor for external runtimes that consume plain arrays.
    Raises [Invalid_argument] on non-float tensors. *)

val fill_f : t -> float -> unit
(** Overwrite every element of a float tensor with the (normalised) value. *)

val blit_into : src:t -> dst:t -> unit
(** Raw copy between tensors of identical dtype and shape. *)

val copy_data_into : src:t -> dst:t -> unit
(** Raw copy between tensors of identical dtype and element count; shapes may
    differ (used for reshape-family kernels writing into a plan buffer). *)

val map_into : (float -> float) -> t -> dst:t -> unit
(** Destination-passing [map_f]: reads the source as float, writes normalised
    results into the float tensor [dst] (same element count).  Writing through
    {!set_f} semantics keeps results bit-identical to [map_f]. *)

val map2_into :
  ?oa:int array -> ?ob:int array -> (float -> float -> float) -> t -> t ->
  dst:t -> unit
(** Destination-passing broadcasting binary op.  [oa]/[ob] are precomputed
    linear index maps from [dst] positions into each source (see
    {!index_map}); omitted maps mean the source already has [dst]'s shape. *)

val map_f : ?dtype:Dtype.t -> (float -> float) -> t -> t
(** Elementwise over a float tensor; result dtype defaults to the input's. *)

val map_i : ?dtype:Dtype.t -> (int -> int) -> t -> t
val map_b : (bool -> bool) -> t -> t

val index_map : src:Shape.t -> dst:Shape.t -> int array option
(** Materialised broadcast index map, walked by {!Shape.iter_offsets}:
    element [i] is the source offset feeding destination position [i].
    [None] when the shapes are equal (identity).  Raises [Invalid_argument]
    when [src] does not broadcast to [dst]. *)

val at : int array option -> int -> int
(** [at map i]: entry [i] of an {!index_map} result, [i] itself for
    [None]. *)

val map2_f : Dtype.t -> (float -> float -> float) -> t -> t -> t
(** Broadcasting binary op over float tensors; output has the broadcast
    shape and the given dtype. *)

val map2_i : Dtype.t -> (int -> int -> int) -> t -> t -> t
val map2_b : (bool -> bool -> bool) -> t -> t -> t

val cmp2 : (float -> float -> bool) -> t -> t -> t
(** Broadcasting comparison over numeric tensors (read as float); output is
    Bool. *)

val where : t -> t -> t -> t
(** [where cond a b]: three-way broadcasting select; [cond] must be Bool,
    [a] and [b] must share a dtype. *)

val cast : t -> Dtype.t -> t
(** Float->int truncates toward zero; anything->bool tests [<> 0];
    bool->number yields 0/1. *)

val broadcast_to : t -> Shape.t -> t
(** Materialised broadcast.  Raises [Invalid_argument] when impossible. *)

val is_bad : float -> bool
(** True for NaN and the infinities — the scalar predicate behind
    {!has_bad}. *)

val has_bad : t -> bool
(** True when a float tensor contains a NaN or infinity; always false for
    integer/bool tensors. *)

val count_bad : t -> int

val max_abs : t -> float
(** Largest absolute value, reading any dtype as float; 0 for empty. *)

val approx_equal : ?rtol:float -> ?atol:float -> t -> t -> bool
(** Same dtype-kind, same shape, and elementwise
    [|a - b| <= atol + rtol * max(|a|, |b|)].  NaNs compare equal to NaNs so
    that two backends that both produce NaN are not flagged as a semantic
    difference. *)

val max_rel_error : t -> t -> float
(** Diagnostic: largest [|a - b| / max(1, |a|, |b|)] over the elements;
    [infinity] when shapes mismatch or exactly one side is NaN. *)

val random_f : Random.State.t -> Dtype.t -> Shape.t -> lo:float -> hi:float -> t
val random_i : Random.State.t -> Dtype.t -> Shape.t -> lo:int -> hi:int -> t
val random_b : Random.State.t -> Shape.t -> t

val refill_f_into : Random.State.t -> lo:float -> hi:float -> t -> unit
(** Redraw every element in place, consuming the rng stream exactly as
    {!random_f} would (same order, same normalization). *)

val refill_i_into : Random.State.t -> lo:int -> hi:int -> t -> unit
val refill_b_into : Random.State.t -> t -> unit

val fill_const_into : float -> t -> unit
(** Overwrite with the constant {!full_f}/{!full_i}/{!full_b} would use
    for this tensor's dtype (float value truncated / compared as those
    constructors do). *)

val equal : t -> t -> bool
(** Structural: dtype, shape and bitwise-identical contents. *)

val pp : Format.formatter -> t -> unit
(** Shape, dtype and up to 8 leading elements. *)

val to_string : t -> string
