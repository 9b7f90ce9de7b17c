(** Compiled vector-Jacobian products for every differentiable operator,
    with the proxy derivatives of §3.3 for operators that are
    non-differentiable (Floor, Ceil, Round, Sign) or have zero-gradient
    regions (Relu, Clip).

    [compile] resolves an operator's index arithmetic once, for the dtypes
    and shapes of its operands: broadcast maps, permutations, slice, pad and
    concat offsets, and clipped conv and pool windows.  The closure it
    returns reads the forward values' float payloads directly and writes
    each input's gradient into a caller-owned F64 buffer.

    Every gradient is computed with the arithmetic, the per-element order
    and the starting value of the tensor-level formulation (an allocating
    [Nd.create]-then-accumulate per operator, with F64 casts of its
    operands): a scatter-add starts each element from +0.0, and a one-shot
    element is written as computed, so a -0.0 survives exactly where it did.

    [proxy:false] disables the proxies (they return true, often zero,
    derivatives), which reproduces the paper's "Gradient (no proxy)"
    ablation of Figure 11. *)

module Nd = Nnsmith_tensor.Nd
module Dtype = Nnsmith_tensor.Dtype
module Shape = Nnsmith_tensor.Shape
module Transform = Nnsmith_tensor.Transform
module Op = Nnsmith_ir.Op
module Eval = Nnsmith_ops.Eval

type farray = Nd.farray

type t = {
  grads : bool array;
  run : gout:farray -> Nd.t array -> Nd.t -> farray array -> unit;
}

let proxy_alpha = 0.01
(** Magnitude of proxy derivatives, kept small as for LeakyReLU (§3.3). *)

let sqrt2pi = Float.sqrt (2. *. Float.pi)

(* Unchecked accessors: [Backprop] runs a closure only on values of the
   dtypes and shapes it was compiled for, into buffers of the inputs' element
   counts, and every index below is derived from those shapes. *)
let fget : farray -> int -> float = Bigarray.Array1.unsafe_get
let fset : farray -> int -> float -> unit = Bigarray.Array1.unsafe_set
let zero (a : farray) = Bigarray.Array1.fill a 0.

(* A forward value's payload as floats; non-float values are read the way
   [Nd.to_float] reads them. *)
let fdata (t : Nd.t) =
  match t.Nd.data with
  | Nd.F a -> a
  | Nd.I _ | Nd.B _ -> Nd.float_data (Nd.cast t Dtype.F64)

let bools (t : Nd.t) =
  match t.Nd.data with
  | Nd.B a -> a
  | Nd.F _ | Nd.I _ -> invalid_arg "Nd.get_b: not a bool tensor"

(* [i -> i] for an identity broadcast, else the materialised map. *)
let reader = function None -> fun i -> i | Some m -> Array.unsafe_get m

let none arity = { grads = Array.make arity false; run = (fun ~gout:_ _ _ _ -> ()) }

(* Elementwise unary derivative as a function of (x, y). *)
let derivative ~proxy (u : Op.unary) : float -> float -> float =
  match u with
  | Op.Abs -> fun x _ -> if x >= 0. then 1. else -1.
  | Neg -> fun _ _ -> -1.
  | Exp -> fun _ y -> y
  | Log -> fun x _ -> 1. /. x
  | Log2 -> fun x _ -> 1. /. (x *. Float.log 2.)
  | Sqrt -> fun x _ -> 1. /. (2. *. Float.sqrt x)
  | Sin -> fun x _ -> Float.cos x
  | Cos -> fun x _ -> -.Float.sin x
  | Tan -> fun _ y -> 1. +. (y *. y)
  | Asin -> fun x _ -> 1. /. Float.sqrt (1. -. (x *. x))
  | Acos -> fun x _ -> -1. /. Float.sqrt (1. -. (x *. x))
  | Atan -> fun x _ -> 1. /. (1. +. (x *. x))
  | Tanh -> fun _ y -> 1. -. (y *. y)
  | Sigmoid -> fun _ y -> y *. (1. -. y)
  | Relu ->
      let neg = if proxy then proxy_alpha else 0. in
      fun x _ -> if x > 0. then 1. else neg
  | Gelu ->
      fun x _ ->
        let phi = Float.exp (-.(x *. x) /. 2.) /. sqrt2pi in
        (0.5 *. (1. +. Eval.erf (x /. Float.sqrt 2.))) +. (x *. phi)
  | Floor | Ceil | Round ->
      let d = if proxy then 1. else 0. in
      fun _ _ -> d
  | Sign ->
      let d = if proxy then proxy_alpha else 0. in
      fun _ _ -> d
  | Reciprocal -> fun _ y -> -.(y *. y)
  | Erf -> fun x _ -> 2. /. Float.sqrt Float.pi *. Float.exp (-.(x *. x))
  | Softplus -> fun x _ -> 1. /. (1. +. Float.exp (-.x))
  | Softsign ->
      fun x _ ->
        let d = 1. +. Float.abs x in
        1. /. (d *. d)
  | Elu -> fun x _ -> if x > 0. then 1. else Float.exp x
  | Selu ->
      fun x _ ->
        if x > 0. then Eval.selu_lambda
        else Eval.selu_lambda *. Eval.selu_alpha *. Float.exp x
  | Hardswish ->
      let sat = if proxy then proxy_alpha else 0. in
      fun x _ ->
        if x <= -3. then sat else if x >= 3. then 1. else ((2. *. x) +. 3.) /. 6.
  | Hardsigmoid ->
      let sat = if proxy then proxy_alpha else 0. in
      fun x _ -> if x > -3. && x < 3. then 1. /. 6. else sat

(* Per-element binary partials dz/dx and dz/dy. *)
let partials ~proxy (b : Op.binary) :
    (float -> float -> float) * (float -> float -> float) =
  match b with
  | Op.Add -> ((fun _ _ -> 1.), fun _ _ -> 1.)
  | Sub -> ((fun _ _ -> 1.), fun _ _ -> -1.)
  | Mul -> ((fun _ y -> y), fun x _ -> x)
  | Div -> ((fun _ y -> 1. /. y), fun x y -> -.x /. (y *. y))
  | Pow ->
      ( (fun x y -> if x = 0. then 0. else y *. Float.pow x (y -. 1.)),
        fun x y -> if x > 0. then Float.pow x y *. Float.log x else 0. )
  | Max2 ->
      ( (fun x y -> if x > y then 1. else if x < y then 0. else 0.5),
        fun x y -> if x > y then 0. else if x < y then 1. else 0.5 )
  | Min2 ->
      ( (fun x y -> if x < y then 1. else if x > y then 0. else 0.5),
        fun x y -> if x < y then 0. else if x > y then 1. else 0.5 )
  | Mod2 ->
      ((fun _ _ -> 1.), fun x y -> if proxy then -.Float.trunc (x /. y) else 0.)

(* Summing a gradient down to a broadcast source shape: whole leading axes
   first, then every axis the source holds at 1, each a single-axis sum
   (outer, d, inner) from +0.0 in ascending order along the axis, as
   [Reduce.sum] folds.  [None] when the shapes already agree. *)
let reduce_to (src : Shape.t) (target : Shape.t) :
    (farray -> farray -> unit) option =
  let g = ref src and steps = ref [] in
  let step axis ~keep =
    let s = !g in
    let r = Array.length s in
    steps :=
      ( Shape.numel (Array.sub s 0 axis),
        s.(axis),
        Shape.numel (Array.sub s (axis + 1) (r - axis - 1)) )
      :: !steps;
    g :=
      if keep then Array.mapi (fun k d -> if k = axis then 1 else d) s
      else Array.sub s 1 (r - 1)
  in
  while Array.length !g > Array.length target do
    step 0 ~keep:false
  done;
  Array.iteri (fun i d -> if d = 1 && !g.(i) > 1 then step i ~keep:true) target;
  let sum (outer, d, inner) (s : farray) (dst : farray) =
    for o = 0 to outer - 1 do
      for i = 0 to inner - 1 do
        let acc = ref 0. in
        for a = 0 to d - 1 do
          acc := !acc +. fget s ((((o * d) + a) * inner) + i)
        done;
        fset dst ((o * inner) + i) !acc
      done
    done
  in
  match List.rev !steps with
  | [] -> None
  | steps ->
      (* every step but the last writes a preallocated intermediate *)
      let last = List.length steps - 1 in
      let bufs =
        List.mapi
          (fun k (outer, _, inner) ->
            if k = last then None
            else
              Some
                (Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
                   (outer * inner)))
          steps
      in
      Some
        (fun s dst ->
          ignore
            (List.fold_left2
               (fun s st buf ->
                 let d = Option.value buf ~default:dst in
                 sum st s d;
                 d)
               s steps bufs))

let copy ~gout _ _ (dsts : farray array) = Bigarray.Array1.blit gout dsts.(0)

(* [dst_i = gout_i *. d x_i y_i] over a unary-shaped operator. *)
let elementwise n d =
  fun ~gout (ins : Nd.t array) out (dsts : farray array) ->
    let x = fdata ins.(0) and y = fdata out and dst = dsts.(0) in
    for i = 0 to n - 1 do
      fset dst i (fget gout i *. d (fget x i) (fget y i))
    done

let binary ~proxy b ~xs ~ys ~os =
  let dx, dy = partials ~proxy b in
  let n = Shape.numel os in
  let mx = Nd.index_map ~src:xs ~dst:os and my = Nd.index_map ~src:ys ~dst:os in
  let ox = reader mx and oy = reader my in
  fun ~gout (ins : Nd.t array) _ (dsts : farray array) ->
    let x = fdata ins.(0) and y = fdata ins.(1) in
    let gx = dsts.(0) and gy = dsts.(1) in
    zero gx;
    zero gy;
    if mx = None && my = None then
      for i = 0 to n - 1 do
        let xv = fget x i and yv = fget y i and g = fget gout i in
        fset gx i (fget gx i +. (g *. dx xv yv));
        fset gy i (fget gy i +. (g *. dy xv yv))
      done
    else
      for i = 0 to n - 1 do
        let xi = ox i and yi = oy i in
        let xv = fget x xi and yv = fget y yi and g = fget gout i in
        fset gx xi (fget gx xi +. (g *. dx xv yv));
        fset gy yi (fget gy yi +. (g *. dy xv yv))
      done

(* dx = y * (g - sum(g * y, axis)), the sum taken from +0.0 along the axis. *)
let softmax ~axis (os : Shape.t) =
  let r = Array.length os in
  if axis < 0 || axis >= r then invalid_arg "Reduce: bad axis";
  let outer = Shape.numel (Array.sub os 0 axis)
  and d = os.(axis)
  and inner = Shape.numel (Array.sub os (axis + 1) (r - axis - 1)) in
  fun ~gout _ out (dsts : farray array) ->
    let y = fdata out and dst = dsts.(0) in
    for o = 0 to outer - 1 do
      for i = 0 to inner - 1 do
        let at a = (((o * d) + a) * inner) + i in
        let s = ref 0. in
        for a = 0 to d - 1 do
          s := !s +. (fget gout (at a) *. fget y (at a))
        done;
        for a = 0 to d - 1 do
          fset dst (at a) ((fget gout (at a) -. !s) *. fget y (at a))
        done
      done
    done

(* The cotangent of a reduction, broadcast back over the input: the reduced
   axes are re-inserted as size 1 unless kept. *)
let reduce (r : Op.reduce) ~axes ~keepdims ~(xs : Shape.t) ~(os : Shape.t) =
  let gs =
    if keepdims then os
    else
      Array.of_list
        (List.fold_left
           (fun dims a ->
             List.filteri (fun i _ -> i < a) dims
             @ [ 1 ]
             @ List.filteri (fun i _ -> i >= a) dims)
           (Array.to_list os) (List.sort compare axes))
  in
  if Shape.numel gs <> Shape.numel os then
    invalid_arg "Transform.reshape: element count mismatch";
  let window = List.fold_left (fun acc a -> acc * xs.(a)) 1 axes in
  let n = Shape.numel xs in
  let b = reader (Nd.index_map ~src:gs ~dst:xs) in
  match r with
  | Op.R_sum ->
      fun ~gout _ _ (dsts : farray array) ->
        let dst = dsts.(0) in
        for i = 0 to n - 1 do
          fset dst i (fget gout (b i))
        done
  | R_mean ->
      let w = float_of_int window in
      fun ~gout _ _ (dsts : farray array) ->
        let dst = dsts.(0) in
        for i = 0 to n - 1 do
          fset dst i (fget gout (b i) /. w)
        done
  | R_max | R_min ->
      fun ~gout (ins : Nd.t array) out (dsts : farray array) ->
        let x = fdata ins.(0) and o = fdata out and dst = dsts.(0) in
        for i = 0 to n - 1 do
          let bi = b i in
          fset dst i (if fget x i = fget o bi then fget gout bi else 0.)
        done
  | R_prod ->
      fun ~gout (ins : Nd.t array) out (dsts : farray array) ->
        let x = fdata ins.(0) and o = fdata out and dst = dsts.(0) in
        for i = 0 to n - 1 do
          let xi = fget x i and bi = b i in
          fset dst i (if xi = 0. then 0. else fget gout bi *. fget o bi /. xi)
        done

(* Batched matmul with numpy rank-1 promotion.  ga = g . b^T and
   gb = a^T . g, each sum taken from +0.0 ascending over the contraction
   index, then summed down over broadcast batch dims. *)
let matmul ~(sa : Shape.t) ~(sb : Shape.t) =
  let sa = if Array.length sa = 1 then [| 1; sa.(0) |] else sa in
  let sb = if Array.length sb = 1 then [| sb.(0); 1 |] else sb in
  let ra = Array.length sa and rb = Array.length sb in
  let m = sa.(ra - 2) and k = sa.(ra - 1) and n = sb.(rb - 1) in
  if sb.(rb - 2) <> k then invalid_arg "Linalg.matmul: contraction mismatch";
  let batch_a = Array.sub sa 0 (ra - 2) and batch_b = Array.sub sb 0 (rb - 2) in
  let batch =
    match Shape.broadcast batch_a batch_b with
    | Some s -> s
    | None -> invalid_arg "Linalg.matmul: batch dims do not broadcast"
  in
  let nb = Shape.numel batch in
  (* offset of each batch entry's matrix inside an operand *)
  let bases src rows cols =
    let o = reader (Nd.index_map ~src ~dst:batch) in
    Array.init nb (fun bi -> o bi * rows * cols)
  in
  let abase = bases batch_a m k and bbase = bases batch_b k n in
  let ga2 (g : farray) (b : farray) (dst : farray) =
    for bi = 0 to nb - 1 do
      let bb = bbase.(bi) in
      for i = 0 to m - 1 do
        let grow = ((bi * m) + i) * n in
        for j = 0 to k - 1 do
          let brow = bb + (j * n) in
          let acc = ref 0. in
          for l = 0 to n - 1 do
            acc := !acc +. (fget g (grow + l) *. fget b (brow + l))
          done;
          fset dst ((((bi * m) + i) * k) + j) !acc
        done
      done
    done
  in
  let gb2 (a : farray) (g : farray) (dst : farray) =
    for bi = 0 to nb - 1 do
      let ab = abase.(bi) in
      for i = 0 to k - 1 do
        for j = 0 to n - 1 do
          let acc = ref 0. in
          for l = 0 to m - 1 do
            acc :=
              !acc
              +. (fget a (ab + (l * k) + i) *. fget g ((((bi * m) + l) * n) + j))
          done;
          fset dst ((((bi * k) + i) * n) + j) !acc
        done
      done
    done
  in
  (* with a broadcast batch, the full-batch product is staged and summed *)
  let staged full target kernel =
    match reduce_to (Array.append batch full) target with
    | None -> kernel
    | Some sum ->
        let buf =
          Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
            (nb * Shape.numel full)
        in
        fun x y dst ->
          kernel x y buf;
          sum buf dst
  in
  let ga = staged [| m; k |] sa ga2 and gb = staged [| k; n |] sb gb2 in
  fun ~gout (ins : Nd.t array) _ (dsts : farray array) ->
    let a = fdata ins.(0) and b = fdata ins.(1) in
    ga gout b dsts.(0);
    gb a gout dsts.(1)

(* Each output cell's gradient reaches only the in-bounds taps of its
   window; visiting the clipped window in (ci, ki, kj) order hits every
   input and weight element in the order a full sweep with a bounds test
   does, so each scatter-add sums the same terms in the same order.  A zero
   output gradient contributes nothing. *)
let conv2d ~stride ~padding ~(xs : Shape.t) ~(ws : Shape.t) ~(os : Shape.t) =
  let nb = xs.(0) and c = xs.(1) and h = xs.(2) and w = xs.(3) in
  let f = ws.(0) and kh = ws.(2) and kw = ws.(3) in
  let oh = os.(2) and ow = os.(3) in
  fun ~gout (ins : Nd.t array) _ (dsts : farray array) ->
    let x = fdata ins.(0) and wt = fdata ins.(1) in
    let gx = dsts.(0) and gw = dsts.(1) in
    zero gx;
    zero gw;
    for ni = 0 to nb - 1 do
      for fi = 0 to f - 1 do
        for ohi = 0 to oh - 1 do
          let h0 = (ohi * stride) - padding in
          let ki0 = max 0 (-h0) and ki1 = min kh (h - h0) in
          for owi = 0 to ow - 1 do
            let g = fget gout ((((((ni * f) + fi) * oh) + ohi) * ow) + owi) in
            if g <> 0. then begin
              let w0 = (owi * stride) - padding in
              let kj0 = max 0 (-w0) and kj1 = min kw (w - w0) in
              for ci = 0 to c - 1 do
                for ki = ki0 to ki1 - 1 do
                  let xrow = ((((((ni * c) + ci) * h) + h0 + ki) * w) + w0)
                  and wrow = ((((fi * c) + ci) * kh) + ki) * kw in
                  for kj = kj0 to kj1 - 1 do
                    let xo = xrow + kj and wo = wrow + kj in
                    fset gx xo (fget gx xo +. (g *. fget wt wo));
                    fset gw wo (fget gw wo +. (g *. fget x xo))
                  done
                done
              done
            end
          done
        done
      done
    done

(* Average pooling spreads each output gradient evenly over the window's
   in-bounds cells.  Max pooling routes it to one cell: the scan starts at
   the last in-bounds cell in row-major order and walks backwards, replacing
   the candidate only on a strict [>], so the last maximal cell wins and a
   NaN wins only when it is that starting cell. *)
let pool2d (kind : Op.pool) ~kh ~kw ~stride ~padding ~(xs : Shape.t)
    ~(os : Shape.t) =
  let planes = xs.(0) * xs.(1) and h = xs.(2) and w = xs.(3) in
  let oh = os.(2) and ow = os.(3) in
  fun ~gout (ins : Nd.t array) _ (dsts : farray array) ->
    let x = fdata ins.(0) and gx = dsts.(0) in
    zero gx;
    for plane = 0 to planes - 1 do
      for ohi = 0 to oh - 1 do
        let h0 = (ohi * stride) - padding in
        let hlo = max 0 h0 and hhi = min h (h0 + kh) in
        for owi = 0 to ow - 1 do
          let g = fget gout ((((plane * oh) + ohi) * ow) + owi) in
          let w0 = (owi * stride) - padding in
          let wlo = max 0 w0 and whi = min w (w0 + kw) in
          if g <> 0. && hlo < hhi && wlo < whi then
            match kind with
            | Op.P_avg ->
                let share = g /. float_of_int ((hhi - hlo) * (whi - wlo)) in
                for hi = hlo to hhi - 1 do
                  let row = ((plane * h) + hi) * w in
                  for wi = wlo to whi - 1 do
                    fset gx (row + wi) (fget gx (row + wi) +. share)
                  done
                done
            | Op.P_max ->
                let best = ref ((((plane * h) + hhi - 1) * w) + whi - 1) in
                let best_v = ref (fget x !best) in
                for hi = hhi - 1 downto hlo do
                  let row = ((plane * h) + hi) * w in
                  for wi = whi - 1 downto wlo do
                    let v = fget x (row + wi) in
                    if v > !best_v then begin
                      best := row + wi;
                      best_v := v
                    end
                  done
                done;
                fset gx !best (fget gx !best +. g)
        done
      done
    done

(* [dst_i = gout_(map_i)], or +0.0 where [map_i < 0]. *)
let gather_from map =
  fun ~gout _ _ (dsts : farray array) ->
   let dst = dsts.(0) in
   for i = 0 to Array.length map - 1 do
     let j = Array.unsafe_get map i in
     fset dst i (if j >= 0 then fget gout j else 0.)
   done

(* [dst_(map_i) += gout_i] from +0.0, in ascending i. *)
let scatter_add map =
  fun ~gout _ _ (dsts : farray array) ->
   let dst = dsts.(0) in
   zero dst;
   for i = 0 to Array.length map - 1 do
     let j = Array.unsafe_get map i in
     fset dst j (fget dst j +. fget gout i)
   done

(* Each input element takes the cotangent of the output position that read
   it, or +0.0 when none did. *)
let slice ~axis ~start ~(xs : Shape.t) ~(os : Shape.t) =
  let st = Shape.strides xs in
  let src = Array.make (Shape.numel xs) (-1) in
  Shape.iter_offsets os
    (Array.mapi
       (fun k d ->
         let s = if k = axis then start else 0 in
         Array.init d (fun c -> (c + s) * st.(k)))
       os)
    (fun i j -> src.(j) <- i);
  gather_from src

let pad ~before ~(xs : Shape.t) ~(os : Shape.t) =
  let before = Array.of_list before and st = Shape.strides os in
  gather_from
    (Shape.offsets xs
       (Array.mapi
          (fun k d ->
            Array.init d (fun c ->
                let v = c + before.(k) in
                if v >= 0 && v < os.(k) then v * st.(k) else -1))
          xs))

let concat ~axis (parts : Shape.t array) ~(os : Shape.t) =
  let r = Array.length os in
  let outer = Shape.numel (Array.sub os 0 axis)
  and total = os.(axis)
  and inner = Shape.numel (Array.sub os (axis + 1) (r - axis - 1)) in
  let widths = Array.map (fun (s : Shape.t) -> s.(axis) * inner) parts in
  let offsets = Array.make (Array.length parts) 0 in
  for p = 1 to Array.length parts - 1 do
    offsets.(p) <- offsets.(p - 1) + widths.(p - 1)
  done;
  fun ~gout _ _ (dsts : farray array) ->
    Array.iteri
      (fun p dst ->
        let wd = widths.(p) and off = offsets.(p) in
        for o = 0 to outer - 1 do
          let src = (o * total * inner) + off and at = o * wd in
          for e = 0 to wd - 1 do
            fset dst (at + e) (fget gout (src + e))
          done
        done)
      dsts

let where ~(cs : Shape.t) ~(ts : Shape.t) ~(fs : Shape.t) ~(os : Shape.t) =
  let n = Shape.numel os in
  let oc = reader (Nd.index_map ~src:cs ~dst:os)
  and ot = reader (Nd.index_map ~src:ts ~dst:os)
  and of_ = reader (Nd.index_map ~src:fs ~dst:os) in
  fun ~gout (ins : Nd.t array) _ (dsts : farray array) ->
    let c = bools ins.(0) and gt = dsts.(1) and gf = dsts.(2) in
    zero gt;
    zero gf;
    for i = 0 to n - 1 do
      let g = fget gout i in
      if Array.unsafe_get c (oc i) then fset gt (ot i) (fget gt (ot i) +. g)
      else fset gf (of_ i) (fget gf (of_ i) +. g)
    done

(* Scatter-add back through the (clamped) runtime index, over the
   [outer x n_indices x inner] blocks of {!Transform.gather}. *)
let gather ~axis ~(ds : Shape.t) ~(is : Shape.t) ~(os : Shape.t) =
  let r = Array.length ds in
  let outer = Shape.numel (Array.sub ds 0 axis)
  and inner = Shape.numel (Array.sub ds (axis + 1) (r - axis - 1))
  and ni = Shape.numel is
  and d = ds.(axis) in
  if outer * ni * inner <> Shape.numel os then
    invalid_arg "Vjp.gather: output shape mismatch";
  fun ~gout (ins : Nd.t array) _ (dsts : farray array) ->
    let idx = ins.(1) and gd = dsts.(0) in
    zero gd;
    for o = 0 to outer - 1 do
      for q = 0 to ni - 1 do
        let j = max 0 (min (d - 1) (Nd.to_int idx q)) in
        let src = ((o * d) + j) * inner and at = ((o * ni) + q) * inner in
        for e = 0 to inner - 1 do
          fset gd (src + e) (fget gd (src + e) +. fget gout (at + e))
        done
      done
    done

let compile ~proxy (op : int Op.t) ~(ins : (Dtype.t * Shape.t) array)
    ~(out : Dtype.t * Shape.t) : t =
  let arity = Array.length ins in
  let os = snd out in
  let float k = Dtype.is_float (fst ins.(k)) in
  let all run = { grads = Array.make arity true; run } in
  match (op, ins) with
  | Op.Unary u, [| (_, xs) |] when float 0 ->
      all (elementwise (Shape.numel xs) (derivative ~proxy u))
  | Op.Binary b, [| (_, xs); (_, ys) |] when float 0 ->
      all (binary ~proxy b ~xs ~ys ~os)
  | Op.Clip { c_lo; c_hi }, [| (_, xs) |] ->
      let out_d = if proxy then proxy_alpha else 0. in
      all
        (elementwise (Shape.numel xs) (fun v _ ->
             if v >= c_lo && v <= c_hi then 1. else out_d))
  | Op.Leaky_relu { alpha }, [| (_, xs) |] ->
      all (elementwise (Shape.numel xs) (fun v _ -> if v >= 0. then 1. else alpha))
  | Op.Cast target, [| _ |] when Dtype.is_float target && float 0 -> all copy
  | Op.Softmax { sm_axis }, [| _ |] -> all (softmax ~axis:sm_axis os)
  | Op.Reduce (r, { r_axes; r_keepdims }), [| (_, xs) |] when float 0 ->
      all (reduce r ~axes:r_axes ~keepdims:r_keepdims ~xs ~os)
  | Op.Mat_mul, [| (_, sa); (_, sb) |] -> all (matmul ~sa ~sb)
  | Op.Conv2d { stride; padding; _ }, [| (_, xs); (_, ws) |] ->
      all (conv2d ~stride ~padding ~xs ~ws ~os)
  | Op.Pool2d (kind, { p_kh; p_kw; p_stride; p_padding }), [| (_, xs) |] ->
      all
        (pool2d kind ~kh:p_kh ~kw:p_kw ~stride:p_stride ~padding:p_padding ~xs
           ~os)
  | (Op.Reshape _ | Op.Flatten _ | Op.Squeeze _ | Op.Unsqueeze _), [| _ |]
    when float 0 ->
      all copy
  | Op.Transpose perm, [| _ |] when float 0 ->
      let inv = Array.make (Array.length perm) 0 in
      Array.iteri (fun i p -> inv.(p) <- i) perm;
      all (gather_from (snd (Transform.transpose_map os inv)))
  | Op.Slice { s_axis; s_start; _ }, [| (_, xs) |] when float 0 ->
      all (slice ~axis:s_axis ~start:s_start ~xs ~os)
  | Op.Pad (_, { pad_before; _ }), [| (_, xs) |] when float 0 ->
      all (pad ~before:pad_before ~xs ~os)
  | Op.Concat { cat_axis; _ }, _
    when Array.for_all (fun (d, _) -> Dtype.is_float d) ins ->
      all (concat ~axis:cat_axis (Array.map snd ins) ~os)
  | Op.Where, [| (_, cs); (_, ts); (_, fs) |] when float 1 ->
      {
        grads = [| false; true; true |];
        run = where ~cs ~ts ~fs ~os;
      }
  | Op.Expand _, [| (_, xs) |] when float 0 ->
      all
        (match reduce_to os xs with
        | None -> copy
        | Some sum -> fun ~gout _ _ dsts -> sum gout dsts.(0))
  | Op.Gather { g_axis }, [| (_, ds); (_, is) |] when float 0 ->
      { grads = [| true; false |]; run = gather ~axis:g_axis ~ds ~is ~os }
  | Op.Tile reps, [| (_, xs) |] when float 0 ->
      all (scatter_add (snd (Transform.tile_map xs reps)))
  | _ -> none arity
