(* Float storage is a Bigarray: unboxed 64-bit elements outside the OCaml
   heap, so tensor payloads are invisible to the GC (no scanning, no minor-heap
   churn from kernel temporaries).  Both F32 and F64 tensors store float64
   elements — F32 values are rounded through [Dtype.round_f32] at every write
   site, exactly as the boxed representation did, so all bit-identity
   properties are preserved.  Int/bool tensors stay boxed: they are small,
   rare, and never on the kernel hot path. *)
type farray = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type data = F of farray | I of int array | B of bool array
type t = { dtype : Dtype.t; shape : Shape.t; data : data }

let fcreate n : farray = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let empty_f : farray = fcreate 0

let numel t = Shape.numel t.shape
let rank t = Shape.rank t.shape
let dtype t = t.dtype
let shape t = t.shape

let create dtype shape =
  let n = Shape.numel shape in
  let data =
    match dtype with
    | Dtype.F32 | F64 ->
        let a = fcreate n in
        Bigarray.Array1.fill a 0.;
        F a
    | I32 | I64 -> I (Array.make n 0)
    | Bool -> B (Array.make n false)
  in
  { dtype; shape; data }

let init_f dtype shape f =
  if not (Dtype.is_float dtype) then invalid_arg "Nd.init_f: not a float dtype";
  let n = Shape.numel shape in
  let a = fcreate n in
  for i = 0 to n - 1 do
    a.{i} <- Dtype.normalize_float dtype (f i)
  done;
  { dtype; shape; data = F a }

let init_i dtype shape f =
  if not (Dtype.is_int dtype) then invalid_arg "Nd.init_i: not an int dtype";
  let n = Shape.numel shape in
  { dtype; shape; data = I (Array.init n (fun i -> Dtype.normalize_int dtype (f i))) }

let init_b shape f =
  let n = Shape.numel shape in
  { dtype = Dtype.Bool; shape; data = B (Array.init n f) }

let full_f dtype shape v = init_f dtype shape (fun _ -> v)
let full_i dtype shape v = init_i dtype shape (fun _ -> v)
let full_b shape v = init_b shape (fun _ -> v)
let scalar_f dtype v = full_f dtype Shape.scalar v
let scalar_i dtype v = full_i dtype Shape.scalar v
let scalar_b v = full_b Shape.scalar v

let of_floats dtype shape a =
  if Array.length a <> Shape.numel shape then
    invalid_arg "Nd.of_floats: length mismatch";
  init_f dtype shape (fun i -> a.(i))

let of_ints dtype shape a =
  if Array.length a <> Shape.numel shape then
    invalid_arg "Nd.of_ints: length mismatch";
  init_i dtype shape (fun i -> a.(i))

let copy t =
  let data =
    match t.data with
    | F a ->
        let b = fcreate (Bigarray.Array1.dim a) in
        Bigarray.Array1.blit a b;
        F b
    | I a -> I (Array.copy a)
    | B a -> B (Array.copy a)
  in
  { t with data }

let get_f t i =
  match t.data with
  | F a -> a.{i}
  | I _ | B _ -> invalid_arg "Nd.get_f: not a float tensor"

let set_f t i v =
  match t.data with
  | F a -> a.{i} <- Dtype.normalize_float t.dtype v
  | I _ | B _ -> invalid_arg "Nd.set_f: not a float tensor"

let get_i t i =
  match t.data with
  | I a -> a.(i)
  | F _ | B _ -> invalid_arg "Nd.get_i: not an int tensor"

let set_i t i v =
  match t.data with
  | I a -> a.(i) <- Dtype.normalize_int t.dtype v
  | F _ | B _ -> invalid_arg "Nd.set_i: not an int tensor"

let get_b t i =
  match t.data with
  | B a -> a.(i)
  | F _ | I _ -> invalid_arg "Nd.get_b: not a bool tensor"

let set_b t i v =
  match t.data with
  | B a -> a.(i) <- v
  | F _ | I _ -> invalid_arg "Nd.set_b: not a bool tensor"

let to_float t i =
  match t.data with
  | F a -> a.{i}
  | I a -> float_of_int a.(i)
  | B a -> if a.(i) then 1. else 0.

let to_int t i =
  match t.data with
  | F a ->
      let x = a.{i} in
      if Float.is_nan x then 0 else int_of_float (Float.trunc x)
  | I a -> a.(i)
  | B a -> if a.(i) then 1 else 0

let float_data t =
  match t.data with
  | F a -> a
  | I _ | B _ -> invalid_arg "Nd.float_data: not a float tensor"

let float_array t =
  match t.data with
  | F a -> Array.init (Bigarray.Array1.dim a) (fun i -> a.{i})
  | I _ | B _ -> invalid_arg "Nd.float_array: not a float tensor"

(* ------------------------------------------------------------------ *)
(* Destination-passing primitives.  These write through [set_f]/[set_i],
   so results are normalised exactly as the allocating constructors
   ([init_f] et al.) normalise — a plan-compiled kernel writing into a
   reused buffer produces the same bits as a fresh allocation. *)

let fill_f t v =
  match t.data with
  | F a -> Bigarray.Array1.fill a (Dtype.normalize_float t.dtype v)
  | I _ | B _ -> invalid_arg "Nd.fill_f: not a float tensor"

let blit_into ~src ~dst =
  if not (Dtype.equal src.dtype dst.dtype) then
    invalid_arg "Nd.blit_into: dtype mismatch";
  if not (Shape.equal src.shape dst.shape) then
    invalid_arg "Nd.blit_into: shape mismatch";
  match (src.data, dst.data) with
  | F a, F b -> Bigarray.Array1.blit a b
  | I a, I b -> Array.blit a 0 b 0 (Array.length a)
  | B a, B b -> Array.blit a 0 b 0 (Array.length a)
  | (F _ | I _ | B _), _ -> invalid_arg "Nd.blit_into: representation mismatch"

let copy_data_into ~src ~dst =
  if not (Dtype.equal src.dtype dst.dtype) then
    invalid_arg "Nd.copy_data_into: dtype mismatch";
  if numel src <> numel dst then
    invalid_arg "Nd.copy_data_into: size mismatch";
  match (src.data, dst.data) with
  | F a, F b -> Bigarray.Array1.blit a b
  | I a, I b -> Array.blit a 0 b 0 (Array.length a)
  | B a, B b -> Array.blit a 0 b 0 (Array.length a)
  | (F _ | I _ | B _), _ ->
      invalid_arg "Nd.copy_data_into: representation mismatch"

let map_into f src ~dst =
  match dst.data with
  | F out ->
      let n = Bigarray.Array1.dim out in
      if numel src <> n then invalid_arg "Nd.map_into: size mismatch";
      let dt = dst.dtype in
      for i = 0 to n - 1 do
        out.{i} <- Dtype.normalize_float dt (f (to_float src i))
      done
  | I _ | B _ -> invalid_arg "Nd.map_into: not a float destination"

let map2_into ?oa ?ob f a b ~dst =
  match dst.data with
  | F out ->
      let n = Bigarray.Array1.dim out in
      let dt = dst.dtype in
      (match (oa, ob) with
      | None, None ->
          for i = 0 to n - 1 do
            out.{i} <- Dtype.normalize_float dt (f (to_float a i) (to_float b i))
          done
      | Some ma, None ->
          for i = 0 to n - 1 do
            out.{i} <-
              Dtype.normalize_float dt (f (to_float a ma.(i)) (to_float b i))
          done
      | None, Some mb ->
          for i = 0 to n - 1 do
            out.{i} <-
              Dtype.normalize_float dt (f (to_float a i) (to_float b mb.(i)))
          done
      | Some ma, Some mb ->
          for i = 0 to n - 1 do
            out.{i} <-
              Dtype.normalize_float dt
                (f (to_float a ma.(i)) (to_float b mb.(i)))
          done)
  | I _ | B _ -> invalid_arg "Nd.map2_into: not a float destination"

let map_f ?dtype f t =
  let dtype = match dtype with Some d -> d | None -> t.dtype in
  init_f dtype t.shape (fun i -> f (to_float t i))

let map_i ?dtype f t =
  let dtype = match dtype with Some d -> d | None -> t.dtype in
  init_i dtype t.shape (fun i -> f (to_int t i))

let map_b f t = init_b t.shape (fun i -> f (get_b t i))

(* ------------------------------------------------------------------ *)
(* Broadcasting.                                                       *)

(* One table per [dst] axis: the source offset of a coordinate on that
   axis, 0 where the axis is broadcast (absent from [src] or of size 1). *)
let broadcast_tables ~src ~dst =
  if not (Shape.can_broadcast_to ~src ~dst) then
    invalid_arg
      (Fmt.str "Nd.index_map: %a does not broadcast to %a" Shape.pp src
         Shape.pp dst);
  let rd = Shape.rank dst and rs = Shape.rank src in
  let st = Shape.strides src in
  Array.init rd (fun i ->
      let j = i - (rd - rs) in
      if j >= 0 && src.(j) > 1 then Array.init dst.(i) (fun c -> c * st.(j))
      else Array.make dst.(i) 0)

let index_map ~src ~dst =
  if Shape.equal src dst then None
  else Some (Shape.offsets dst (broadcast_tables ~src ~dst))

let at map i = match map with None -> i | Some m -> Array.unsafe_get m i

let broadcast_shape2 a b =
  match Shape.broadcast a.shape b.shape with
  | Some s -> s
  | None ->
      invalid_arg
        (Fmt.str "Nd: shapes %a and %a do not broadcast" Shape.pp a.shape
           Shape.pp b.shape)

let map2_gen out_dtype read combine write a b =
  let out_shape = broadcast_shape2 a b in
  let oa = index_map ~src:a.shape ~dst:out_shape
  and ob = index_map ~src:b.shape ~dst:out_shape in
  let out = create out_dtype out_shape in
  for i = 0 to Shape.numel out_shape - 1 do
    write out i (combine (read a (at oa i)) (read b (at ob i)))
  done;
  out

let map2_f dtype f a b = map2_gen dtype to_float f set_f a b
let map2_i dtype f a b = map2_gen dtype to_int f set_i a b
let map2_b f a b = map2_gen Dtype.Bool get_b f set_b a b
let cmp2 f a b = map2_gen Dtype.Bool to_float f set_b a b

let where cond a b =
  if cond.dtype <> Dtype.Bool then invalid_arg "Nd.where: condition not bool";
  if a.dtype <> b.dtype then invalid_arg "Nd.where: branch dtype mismatch";
  let out_shape =
    match Shape.broadcast_many [ cond.shape; a.shape; b.shape ] with
    | Some s -> s
    | None -> invalid_arg "Nd.where: shapes do not broadcast"
  in
  let oc = index_map ~src:cond.shape ~dst:out_shape
  and oa = index_map ~src:a.shape ~dst:out_shape
  and ob = index_map ~src:b.shape ~dst:out_shape in
  let n = Shape.numel out_shape in
  match a.dtype with
  | F32 | F64 ->
      init_f a.dtype out_shape (fun i ->
          if get_b cond (at oc i) then to_float a (at oa i)
          else to_float b (at ob i))
  | I32 | I64 ->
      init_i a.dtype out_shape (fun i ->
          if get_b cond (at oc i) then to_int a (at oa i)
          else to_int b (at ob i))
  | Bool ->
      let out = create Dtype.Bool out_shape in
      for i = 0 to n - 1 do
        set_b out i
          (if get_b cond (at oc i) then get_b a (at oa i)
           else get_b b (at ob i))
      done;
      out

let cast t target =
  match target with
  | Dtype.F32 | F64 -> init_f target t.shape (fun i -> to_float t i)
  | I32 | I64 -> init_i target t.shape (fun i -> to_int t i)
  | Bool -> (
      match t.data with
      | B a -> { dtype = Dtype.Bool; shape = t.shape; data = B (Array.copy a) }
      | F _ | I _ -> init_b t.shape (fun i -> to_float t i <> 0.))

let broadcast_to t dst =
  let tables = broadcast_tables ~src:t.shape ~dst in
  let out = create t.dtype dst in
  (match t.dtype with
  | F32 | F64 ->
      Shape.iter_offsets dst tables (fun i j -> set_f out i (to_float t j))
  | I32 | I64 ->
      Shape.iter_offsets dst tables (fun i j -> set_i out i (to_int t j))
  | Bool -> Shape.iter_offsets dst tables (fun i j -> set_b out i (get_b t j)));
  out

(* ------------------------------------------------------------------ *)
(* Validity and comparison.                                            *)

let bad x = Float.is_nan x || x = Float.infinity || x = Float.neg_infinity
let is_bad = bad

let count_bad t =
  match t.data with
  | F a ->
      let acc = ref 0 in
      for i = 0 to Bigarray.Array1.dim a - 1 do
        if bad a.{i} then incr acc
      done;
      !acc
  | I _ | B _ -> 0

let has_bad t =
  match t.data with
  | F a ->
      let n = Bigarray.Array1.dim a in
      let rec go i = i < n && (bad a.{i} || go (i + 1)) in
      go 0
  | I _ | B _ -> false

let max_abs t =
  let n = numel t in
  let m = ref 0. in
  for i = 0 to n - 1 do
    let x = Float.abs (to_float t i) in
    if x > !m then m := x
  done;
  !m

let approx_equal ?(rtol = 1e-2) ?(atol = 1e-3) a b =
  Shape.equal a.shape b.shape
  && Dtype.is_float a.dtype = Dtype.is_float b.dtype
  &&
  let n = numel a in
  let ok = ref true in
  for i = 0 to n - 1 do
    let x = to_float a i and y = to_float b i in
    let both_nan = Float.is_nan x && Float.is_nan y in
    let same_inf = x = y (* catches matching infinities and exact values *) in
    if not (both_nan || same_inf) then
      if Float.is_nan x || Float.is_nan y then ok := false
      else if Float.abs (x -. y) > atol +. (rtol *. Float.max (Float.abs x) (Float.abs y))
      then ok := false
  done;
  !ok

let max_rel_error a b =
  if not (Shape.equal a.shape b.shape) then infinity
  else begin
    let n = numel a in
    let worst = ref 0. in
    for i = 0 to n - 1 do
      let x = to_float a i and y = to_float b i in
      let err =
        if Float.is_nan x && Float.is_nan y then 0.
        else if Float.is_nan x || Float.is_nan y then infinity
        else if x = y then 0.
        else Float.abs (x -. y) /. Float.max 1. (Float.max (Float.abs x) (Float.abs y))
      in
      if err > !worst then worst := err
    done;
    !worst
  end

(* ------------------------------------------------------------------ *)
(* Random initialisation.                                              *)

let random_f rng dtype shape ~lo ~hi =
  init_f dtype shape (fun _ -> lo +. Random.State.float rng (hi -. lo))

let random_i rng dtype shape ~lo ~hi =
  init_i dtype shape (fun _ -> lo + Random.State.int rng (max 1 (hi - lo + 1)))

let random_b rng shape = init_b shape (fun _ -> Random.State.bool rng)

(* In-place refills for the gradient search's restart loop: identical draw
   order and normalization to [random_f]/[random_i]/[random_b]/[full_*]
   (ascending element index, one draw per element), so refilling a live
   tensor consumes the rng stream exactly as allocating a fresh one would.
   [dst] must already have the target dtype and shape. *)

let refill_f_into rng ~lo ~hi (dst : t) =
  match dst.data with
  | F a ->
      let n = Shape.numel dst.shape in
      for i = 0 to n - 1 do
        a.{i} <-
          Dtype.normalize_float dst.dtype (lo +. Random.State.float rng (hi -. lo))
      done
  | _ -> invalid_arg "Nd.refill_f_into: not a float tensor"

let refill_i_into rng ~lo ~hi (dst : t) =
  match dst.data with
  | I a ->
      let n = Shape.numel dst.shape in
      for i = 0 to n - 1 do
        a.(i) <-
          Dtype.normalize_int dst.dtype
            (lo + Random.State.int rng (max 1 (hi - lo + 1)))
      done
  | _ -> invalid_arg "Nd.refill_i_into: not an int tensor"

let refill_b_into rng (dst : t) =
  match dst.data with
  | B a ->
      let n = Shape.numel dst.shape in
      for i = 0 to n - 1 do
        a.(i) <- Random.State.bool rng
      done
  | _ -> invalid_arg "Nd.refill_b_into: not a bool tensor"

let fill_const_into v (dst : t) =
  match dst.data with
  | F a ->
      let v = Dtype.normalize_float dst.dtype v in
      Bigarray.Array1.fill a v
  | I a -> Array.fill a 0 (Array.length a) (Dtype.normalize_int dst.dtype (int_of_float v))
  | B a -> Array.fill a 0 (Array.length a) (v <> 0.)

let equal a b =
  Dtype.equal a.dtype b.dtype && Shape.equal a.shape b.shape
  &&
  match (a.data, b.data) with
  | F x, F y ->
      (* bitwise so that NaN = NaN *)
      let n = Bigarray.Array1.dim x in
      let rec go i =
        i >= n
        || (Int64.equal (Int64.bits_of_float x.{i}) (Int64.bits_of_float y.{i})
           && go (i + 1))
      in
      go 0
  | I x, I y -> x = y
  | B x, B y -> x = y
  | (F _ | I _ | B _), _ -> false

let pp ppf t =
  let n = numel t in
  let k = min n 8 in
  let elt i =
    match t.data with
    | F a -> Fmt.str "%g" a.{i}
    | I a -> string_of_int a.(i)
    | B a -> string_of_bool a.(i)
  in
  let elems = List.init k elt in
  Fmt.pf ppf "%a%a{%s%s}" Dtype.pp t.dtype Shape.pp t.shape
    (String.concat ", " elems)
    (if n > k then ", ..." else "")

let to_string t = Fmt.str "%a" pp t
