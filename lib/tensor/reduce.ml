let normalize_axes r axes =
  let axes = match axes with [] -> List.init r Fun.id | _ -> axes in
  List.iter
    (fun a -> if a < 0 || a >= r then invalid_arg "Reduce: bad axis")
    axes;
  List.sort_uniq compare axes

let out_shape_of shape axes keepdims =
  let r = Array.length shape in
  if keepdims then
    Array.init r (fun k -> if List.mem k axes then 1 else shape.(k))
  else begin
    let kept = List.filter (fun k -> not (List.mem k axes)) (List.init r Fun.id) in
    Array.of_list (List.map (fun k -> shape.(k)) kept)
  end

(* Precompiled reduction geometry: per-output-cell base offsets and
   per-window-element offset deltas, each walked by the odometer over the
   source's strided tables of the kept or the reduced axes.  Built once (per
   execution plan, or per call for the allocating entry points), then
   applied with a flat double loop that folds each window in ascending
   order of its reduced coordinates. *)
type plan = {
  rp_shape : Shape.t;
  rp_out_shape : Shape.t;
  rp_bases : int array;
  rp_woffs : int array;
}

let plan ~axes ~keepdims shape =
  let r = Array.length shape in
  let axes = normalize_axes r axes in
  let out_shape = out_shape_of shape axes keepdims in
  let kept = List.filter (fun k -> not (List.mem k axes)) (List.init r Fun.id) in
  let st = Shape.strided_tables shape in
  let walk ks =
    let ks = Array.of_list ks in
    Shape.offsets
      (Array.map (fun k -> shape.(k)) ks)
      (Array.map (fun k -> st.(k)) ks)
  in
  {
    rp_shape = shape;
    rp_out_shape = out_shape;
    rp_bases = walk kept;
    rp_woffs = walk axes;
  }

let out_shape p = p.rp_out_shape
let offsets p = (p.rp_bases, p.rp_woffs)

let apply p (t : Nd.t) ~init_of ~combine_f ~finish_f ~dst =
  if not (Shape.equal p.rp_shape t.Nd.shape) then
    invalid_arg "Reduce.apply: plan/source shape mismatch";
  let window = Array.length p.rp_woffs in
  let woffs = p.rp_woffs and bases = p.rp_bases in
  for oi = 0 to Array.length bases - 1 do
    let base = bases.(oi) in
    let acc = ref (init_of ()) in
    for w = 0 to window - 1 do
      acc := combine_f !acc (Nd.to_float t (base + woffs.(w)))
    done;
    Nd.set_f dst oi (finish_f !acc window)
  done

let reduce_gen (t : Nd.t) axes keepdims ~init_of ~combine_f ~finish_f =
  let p = plan ~axes ~keepdims t.Nd.shape in
  let odtype =
    match t.Nd.dtype with
    | Dtype.F32 | F64 -> t.Nd.dtype
    | I32 | I64 | Bool -> Dtype.F64
  in
  let out = Nd.create odtype p.rp_out_shape in
  apply p t ~init_of ~combine_f ~finish_f ~dst:out;
  out

let require_numeric name (t : Nd.t) =
  if t.Nd.dtype = Dtype.Bool then
    invalid_arg (Printf.sprintf "Reduce.%s: bool tensor" name)

let combine_nan_aware f a b =
  if Float.is_nan a || Float.is_nan b then Float.nan else f a b

let sum ?(keepdims = false) ~axes t =
  require_numeric "sum" t;
  let out =
    reduce_gen t axes keepdims
      ~init_of:(fun () -> 0.)
      ~combine_f:( +. )
      ~finish_f:(fun acc _ -> acc)
  in
  if Dtype.is_int t.Nd.dtype then Nd.cast out t.Nd.dtype else out

let mean ?(keepdims = false) ~axes t =
  if not (Dtype.is_float t.Nd.dtype) then invalid_arg "Reduce.mean: not float";
  reduce_gen t axes keepdims
    ~init_of:(fun () -> 0.)
    ~combine_f:( +. )
    ~finish_f:(fun acc w -> acc /. float_of_int w)

let prod ?(keepdims = false) ~axes t =
  require_numeric "prod" t;
  let out =
    reduce_gen t axes keepdims
      ~init_of:(fun () -> 1.)
      ~combine_f:( *. )
      ~finish_f:(fun acc _ -> acc)
  in
  if Dtype.is_int t.Nd.dtype then Nd.cast out t.Nd.dtype else out

let max_ ?(keepdims = false) ~axes t =
  require_numeric "max" t;
  let out =
    reduce_gen t axes keepdims
      ~init_of:(fun () -> Float.neg_infinity)
      ~combine_f:(combine_nan_aware Float.max)
      ~finish_f:(fun acc _ -> acc)
  in
  if Dtype.is_int t.Nd.dtype then Nd.cast out t.Nd.dtype else out

let min_ ?(keepdims = false) ~axes t =
  require_numeric "min" t;
  let out =
    reduce_gen t axes keepdims
      ~init_of:(fun () -> Float.infinity)
      ~combine_f:(combine_nan_aware Float.min)
      ~finish_f:(fun acc _ -> acc)
  in
  if Dtype.is_int t.Nd.dtype then Nd.cast out t.Nd.dtype else out

(* Destination-passing float reductions over a precompiled plan.  Restricted
   to float sources (integer reductions go through the allocating entry
   points, which round-trip through F64 and cast back). *)
let require_float name (t : Nd.t) =
  if not (Dtype.is_float t.Nd.dtype) then
    invalid_arg (Printf.sprintf "Reduce.%s: not a float tensor" name)

let sum_into p t ~dst =
  require_float "sum_into" t;
  apply p t ~init_of:(fun () -> 0.) ~combine_f:( +. )
    ~finish_f:(fun acc _ -> acc)
    ~dst

let mean_into p t ~dst =
  require_float "mean_into" t;
  apply p t ~init_of:(fun () -> 0.) ~combine_f:( +. )
    ~finish_f:(fun acc w -> acc /. float_of_int w)
    ~dst

let prod_into p t ~dst =
  require_float "prod_into" t;
  apply p t ~init_of:(fun () -> 1.) ~combine_f:( *. )
    ~finish_f:(fun acc _ -> acc)
    ~dst

let max_into p t ~dst =
  require_float "max_into" t;
  apply p t
    ~init_of:(fun () -> Float.neg_infinity)
    ~combine_f:(combine_nan_aware Float.max)
    ~finish_f:(fun acc _ -> acc)
    ~dst

let min_into p t ~dst =
  require_float "min_into" t;
  apply p t
    ~init_of:(fun () -> Float.infinity)
    ~combine_f:(combine_nan_aware Float.min)
    ~finish_f:(fun acc _ -> acc)
    ~dst

let arg_extremum ~better ?(keepdims = false) ~axis (t : Nd.t) =
  require_numeric "arg" t;
  let r = Nd.rank t in
  if axis < 0 || axis >= r then invalid_arg "Reduce.arg: bad axis";
  let p = plan ~axes:[ axis ] ~keepdims t.Nd.shape in
  let woffs = p.rp_woffs in
  Nd.init_i Dtype.I64 p.rp_out_shape (fun oi ->
      let base = p.rp_bases.(oi) in
      let best = ref 0 and best_v = ref (Nd.to_float t base) in
      for j = 1 to Array.length woffs - 1 do
        let v = Nd.to_float t (base + woffs.(j)) in
        if (not (Float.is_nan !best_v)) && (Float.is_nan v || better v !best_v)
        then begin
          best := j;
          best_v := v
        end
      done;
      !best)

let argmax ?keepdims ~axis t = arg_extremum ~better:( > ) ?keepdims ~axis t
let argmin ?keepdims ~axis t = arg_extremum ~better:( < ) ?keepdims ~axis t

let softmax ~axis (t : Nd.t) =
  if not (Dtype.is_float t.Nd.dtype) then invalid_arg "Reduce.softmax: not float";
  let mx = max_ ~keepdims:true ~axes:[ axis ] t in
  let shifted = Nd.map2_f t.Nd.dtype ( -. ) t mx in
  let ex = Nd.map_f Float.exp shifted in
  let total = sum ~keepdims:true ~axes:[ axis ] ex in
  Nd.map2_f t.Nd.dtype ( /. ) ex total
