(* [copier src ~fill dst i j] writes source element [j], or the fill where
   [j] is -1, to position [i] of [dst] through [Nd.set_*], which normalise
   as [Nd.init_*] do. *)
let copier (src : Nd.t) ~fill dst =
  match src.Nd.dtype with
  | Dtype.F32 | F64 ->
      fun i j -> Nd.set_f dst i (if j >= 0 then Nd.to_float src j else fill)
  | I32 | I64 ->
      let ifill = int_of_float fill in
      fun i j -> Nd.set_i dst i (if j >= 0 then Nd.to_int src j else ifill)
  | Bool ->
      let bfill = fill <> 0. in
      fun i j -> Nd.set_b dst i (if j >= 0 then Nd.get_b src j else bfill)

(* A tensor of [out_shape] holding the source elements at the offsets of
   [tables] under {!Shape.iter_offsets}. *)
let remap (src : Nd.t) out_shape tables ~fill =
  let dst = Nd.create src.Nd.dtype out_shape in
  Shape.iter_offsets out_shape tables (copier src ~fill dst);
  dst

let gather_into src ~map ~fill ~dst = Array.iteri (copier src ~fill dst) map

(* Stored values are already normalised for their dtype, so a raw copy
   holds the bits [Nd.set_*] would write. *)
let reshape t new_shape =
  if Shape.numel t.Nd.shape <> Shape.numel new_shape then
    invalid_arg
      (Fmt.str "Transform.reshape: %a has %d elements, target %a has %d"
         Shape.pp t.Nd.shape
         (Shape.numel t.Nd.shape)
         Shape.pp new_shape (Shape.numel new_shape));
  { (Nd.copy t) with Nd.shape = new_shape }

let is_permutation perm =
  let n = Array.length perm in
  let seen = Array.make n false in
  Array.for_all
    (fun p ->
      if p < 0 || p >= n || seen.(p) then false
      else begin
        seen.(p) <- true;
        true
      end)
    perm

(* Shared geometry behind [transpose] and the plan-compiled map: output axis
   [k] walks source axis [perm.(k)]. *)
let transpose_spec src_shape perm =
  let r = Array.length src_shape in
  if Array.length perm <> r || not (is_permutation perm) then
    invalid_arg "Transform.transpose: bad permutation";
  let out_shape = Array.map (fun p -> src_shape.(p)) perm in
  let st = Shape.strided_tables src_shape in
  (out_shape, Array.map (fun p -> st.(p)) perm)

let transpose t perm =
  let out_shape, tables = transpose_spec t.Nd.shape perm in
  remap t out_shape tables ~fill:0.

let transpose_map src_shape perm =
  let out_shape, tables = transpose_spec src_shape perm in
  (out_shape, Shape.offsets out_shape tables)

let clamp_index d i =
  let i = if i < 0 then i + d else i in
  max 0 (min d i)

let slice_spec src_shape ~starts ~stops ~steps =
  let r = Array.length src_shape in
  if Array.length starts <> r || Array.length stops <> r || Array.length steps <> r
  then invalid_arg "Transform.slice: rank mismatch";
  Array.iter (fun s -> if s < 1 then invalid_arg "Transform.slice: step < 1") steps;
  let starts = Array.mapi (fun k s -> clamp_index src_shape.(k) s) starts in
  let stops = Array.mapi (fun k s -> clamp_index src_shape.(k) s) stops in
  let out_shape =
    Array.init r (fun k ->
        let len = stops.(k) - starts.(k) in
        if len <= 0 then 0 else 1 + ((len - 1) / steps.(k)))
  in
  if Array.exists (fun d -> d = 0) out_shape then
    invalid_arg "Transform.slice: empty result";
  let st = Shape.strides src_shape in
  ( out_shape,
    Array.mapi
      (fun k d ->
        Array.init d (fun c -> (starts.(k) + (c * steps.(k))) * st.(k)))
      out_shape )

let slice t ~starts ~stops ~steps =
  let out_shape, tables = slice_spec t.Nd.shape ~starts ~stops ~steps in
  remap t out_shape tables ~fill:0.

let slice_map src_shape ~starts ~stops ~steps =
  let out_shape, tables = slice_spec src_shape ~starts ~stops ~steps in
  (out_shape, Shape.offsets out_shape tables)

type pad_mode = Constant of float | Reflect | Replicate

let reflect_index d i =
  (* mirror into [0, d) without repeating the border, as in ONNX Pad *)
  if d = 1 then 0
  else begin
    let period = 2 * (d - 1) in
    let j = ((i mod period) + period) mod period in
    if j < d then j else period - j
  end

(* Shared geometry behind [pad] and the plan-compiled map; a table entry of
   [-1] marks a coordinate outside a constant pad's source. *)
let pad_spec src_shape ~before ~after ~mode =
  let r = Array.length src_shape in
  if Array.length before <> r || Array.length after <> r then
    invalid_arg "Transform.pad: rank mismatch";
  let out_shape =
    Array.init r (fun k -> src_shape.(k) + before.(k) + after.(k))
  in
  if Array.exists (fun d -> d < 1) out_shape then
    invalid_arg "Transform.pad: empty result";
  (match mode with
  | Reflect ->
      Array.iteri
        (fun k d ->
          if before.(k) >= d || after.(k) >= d then
            invalid_arg "Transform.pad: reflect pad >= dim")
        src_shape
  | Constant _ | Replicate -> ());
  let fill = match mode with Constant v -> v | Reflect | Replicate -> 0. in
  let st = Shape.strides src_shape in
  let source d j =
    if j >= 0 && j < d then j
    else
      match mode with
      | Constant _ -> -1
      | Reflect -> reflect_index d j
      | Replicate -> max 0 (min (d - 1) j)
  in
  let tables =
    Array.mapi
      (fun k od ->
        Array.init od (fun c ->
            match source src_shape.(k) (c - before.(k)) with
            | -1 -> -1
            | j -> j * st.(k)))
      out_shape
  in
  (out_shape, fill, tables)

let pad t ~before ~after ~mode =
  let out_shape, fill, tables = pad_spec t.Nd.shape ~before ~after ~mode in
  remap t out_shape tables ~fill

let pad_map src_shape ~before ~after ~mode =
  let out_shape, fill, tables = pad_spec src_shape ~before ~after ~mode in
  (out_shape, Shape.offsets out_shape tables, fill)

(* Shared geometry behind [concat] and the plan kernel.  The output is
   [outer] blocks (the product of the dims before [axis]), each the parts'
   blocks in order; a part's block is its axis dim times the product of the
   dims after [axis] and starts at [o * width] in the part. *)
let concat_spec ~axis shapes =
  match shapes with
  | [] -> invalid_arg "Transform.concat: empty list"
  | (first : Shape.t) :: _ ->
      let r = Array.length first in
      if axis < 0 || axis >= r then invalid_arg "Transform.concat: bad axis";
      List.iter
        (fun (s : Shape.t) ->
          if Array.length s <> r then
            invalid_arg "Transform.concat: rank or dtype mismatch";
          Array.iteri
            (fun k d ->
              if k <> axis && d <> first.(k) then
                invalid_arg "Transform.concat: non-axis dim mismatch")
            s)
        shapes;
      let axis_total =
        List.fold_left (fun acc (s : Shape.t) -> acc + s.(axis)) 0 shapes
      in
      let out_shape = Array.copy first in
      out_shape.(axis) <- axis_total;
      let outer = Shape.numel (Array.sub first 0 axis)
      and inner = Shape.numel (Array.sub first (axis + 1) (r - axis - 1)) in
      let widths =
        Array.of_list (List.map (fun (s : Shape.t) -> s.(axis) * inner) shapes)
      in
      (out_shape, outer, widths)

(* Parts share [dst]'s dtype, so their values are already normalised: a raw
   copy writes the bits [Nd.set_*] would. *)
let concat_into ~outer ~widths (parts : Nd.t array) ~dst =
  let at = ref 0 in
  for o = 0 to outer - 1 do
    for p = 0 to Array.length widths - 1 do
      let w = widths.(p) in
      let src = o * w and dst_at = !at in
      (match (parts.(p).Nd.data, dst.Nd.data) with
      | Nd.F x, Nd.F y ->
          for e = 0 to w - 1 do
            y.{dst_at + e} <- x.{src + e}
          done
      | Nd.I x, Nd.I y -> Array.blit x src y dst_at w
      | Nd.B x, Nd.B y -> Array.blit x src y dst_at w
      | (Nd.F _ | Nd.I _ | Nd.B _), _ ->
          invalid_arg "Transform.concat: rank or dtype mismatch");
      at := dst_at + w
    done
  done

let concat ~axis ts =
  match ts with
  | [] -> invalid_arg "Transform.concat: empty list"
  | first :: _ ->
      if axis < 0 || axis >= Nd.rank first then
        invalid_arg "Transform.concat: bad axis";
      List.iter
        (fun t ->
          if Nd.rank t <> Nd.rank first || t.Nd.dtype <> first.Nd.dtype then
            invalid_arg "Transform.concat: rank or dtype mismatch")
        ts;
      let out_shape, outer, widths =
        concat_spec ~axis (List.map (fun t -> t.Nd.shape) ts)
      in
      let dst = Nd.create first.Nd.dtype out_shape in
      concat_into ~outer ~widths (Array.of_list ts) ~dst;
      dst

let squeeze t axes =
  let r = Nd.rank t in
  let drop =
    match axes with
    | [] ->
        Array.to_list t.Nd.shape
        |> List.mapi (fun k d -> (k, d))
        |> List.filter_map (fun (k, d) -> if d = 1 then Some k else None)
    | _ ->
        List.iter
          (fun a ->
            if a < 0 || a >= r then invalid_arg "Transform.squeeze: bad axis";
            if t.Nd.shape.(a) <> 1 then
              invalid_arg "Transform.squeeze: axis dim <> 1")
          axes;
        axes
  in
  let keep =
    List.init r Fun.id |> List.filter (fun k -> not (List.mem k drop))
  in
  let out_shape = Array.of_list (List.map (fun k -> t.Nd.shape.(k)) keep) in
  reshape t out_shape

let unsqueeze t axis =
  let r = Nd.rank t in
  if axis < 0 || axis > r then invalid_arg "Transform.unsqueeze: bad axis";
  let out_shape =
    Array.init (r + 1) (fun k ->
        if k < axis then t.Nd.shape.(k)
        else if k = axis then 1
        else t.Nd.shape.(k - 1))
  in
  reshape t out_shape

let flatten t ~axis =
  let r = Nd.rank t in
  if axis < 0 || axis > r then invalid_arg "Transform.flatten: bad axis";
  let lead = ref 1 and tail = ref 1 in
  Array.iteri (fun k d -> if k < axis then lead := !lead * d else tail := !tail * d)
    t.Nd.shape;
  reshape t [| !lead; !tail |]

let expand t dst = Nd.broadcast_to t dst

(* Shared geometry behind [tile] and the plan-compiled map: output axis [k]
   walks source axis [k] [reps] times. *)
let tile_spec src_shape reps =
  let out_shape =
    Array.of_list (List.map2 (fun d r -> d * r) (Array.to_list src_shape) reps)
  in
  let st = Shape.strides src_shape in
  ( out_shape,
    Array.mapi
      (fun k d -> Array.init d (fun c -> c mod src_shape.(k) * st.(k)))
      out_shape )

let tile t reps =
  let out_shape, tables = tile_spec t.Nd.shape reps in
  remap t out_shape tables ~fill:0.

let tile_map src_shape reps =
  let out_shape, tables = tile_spec src_shape reps in
  (out_shape, Shape.offsets out_shape tables)

(* ONNX Gather with each index clamped into range.  The output is
   [outer x n_indices x inner] over the data's [outer x d x inner], so the
   element for (o, q, e) is data's (o, clamp index_q, e). *)
let gather ~axis (data : Nd.t) (indices : Nd.t) =
  let sd = data.Nd.shape and si = indices.Nd.shape in
  let rank = Array.length sd in
  let out_shape =
    Array.concat
      [ Array.sub sd 0 axis; si; Array.sub sd (axis + 1) (rank - axis - 1) ]
  in
  let outer = Shape.numel (Array.sub sd 0 axis)
  and inner = Shape.numel (Array.sub sd (axis + 1) (rank - axis - 1))
  and ni = Shape.numel si
  and d = sd.(axis) in
  let dst = Nd.create data.Nd.dtype out_shape in
  let copy = copier data ~fill:0. dst in
  for o = 0 to outer - 1 do
    for q = 0 to ni - 1 do
      let j = max 0 (min (d - 1) (Nd.to_int indices q)) in
      let src = ((o * d) + j) * inner and at = ((o * ni) + q) * inner in
      for e = 0 to inner - 1 do
        copy (at + e) (src + e)
      done
    done
  done;
  dst
