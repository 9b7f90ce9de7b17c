(* Tests for reverse-mode autodiff, Adam, and the gradient-guided input
   search (lib/grad). *)

module Op = Nnsmith_ir.Op
module Graph = Nnsmith_ir.Graph
module Dtype = Nnsmith_tensor.Dtype
module Nd = Nnsmith_tensor.Nd
module Eval = Nnsmith_ops.Eval
module Runner = Nnsmith_ops.Runner
module Vjp = Nnsmith_grad.Vjp
module Adam = Nnsmith_grad.Adam
module Backprop = Nnsmith_grad.Backprop
module Search = Nnsmith_grad.Search
module B = Nnsmith_baselines.Builder

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* The oracle: a tensor-level reverse pass.  Each VJP allocates fresh F64 *)
(* tensors and cotangents are keyed by node id in a table; the search's   *)
(* compiled reverse program must return the same leaf-gradient bits.      *)

module Ref_vjp = struct
  module Nd = Nnsmith_tensor.Nd
  module Dtype = Nnsmith_tensor.Dtype
  module Shape = Nnsmith_tensor.Shape
  module Linalg = Nnsmith_tensor.Linalg
  module Reduce = Nnsmith_tensor.Reduce
  module Transform = Nnsmith_tensor.Transform
  module Op = Nnsmith_ir.Op

  let proxy_alpha = 0.01
  (** Magnitude of proxy derivatives, kept small as for LeakyReLU (§3.3). *)

  let sqrt2pi = Float.sqrt (2. *. Float.pi)

  (* The per-element broadcast formula: the source offset that feeds
     destination position [off]. *)
  let broadcast_offsets ~(src : Shape.t) ~(dst : Shape.t) off =
    let idx = Shape.unravel dst off in
    let rd = Array.length dst and rs = Array.length src in
    Shape.ravel src
      (Array.init rs (fun j -> if src.(j) = 1 then 0 else idx.(j + rd - rs)))

  (* Sum a gradient down to a (possibly broadcast) source shape. *)
  let reduce_to (g : Nd.t) (target : Shape.t) : Nd.t =
    let g = ref g in
    while Nd.rank !g > Array.length target do
      g := Reduce.sum ~axes:[ 0 ] !g
    done;
    Array.iteri
      (fun i d ->
        if d = 1 && (Nd.shape !g).(i) > 1 then
          g := Reduce.sum ~keepdims:true ~axes:[ i ] !g)
      target;
    !g

  (* Elementwise unary derivative as a function of (x, y). *)
  let unary_derivative ~proxy (u : Op.unary) (x : float) (y : float) : float =
    match u with
    | Op.Abs -> if x >= 0. then 1. else -1.
    | Neg -> -1.
    | Exp -> y
    | Log -> 1. /. x
    | Log2 -> 1. /. (x *. Float.log 2.)
    | Sqrt -> 1. /. (2. *. Float.sqrt x)
    | Sin -> Float.cos x
    | Cos -> -.Float.sin x
    | Tan -> 1. +. (y *. y)
    | Asin -> 1. /. Float.sqrt (1. -. (x *. x))
    | Acos -> -1. /. Float.sqrt (1. -. (x *. x))
    | Atan -> 1. /. (1. +. (x *. x))
    | Tanh -> 1. -. (y *. y)
    | Sigmoid -> y *. (1. -. y)
    | Relu -> if x > 0. then 1. else if proxy then proxy_alpha else 0.
    | Gelu ->
        let phi = Float.exp (-.(x *. x) /. 2.) /. sqrt2pi in
        (0.5 *. (1. +. Nnsmith_ops.Eval.erf (x /. Float.sqrt 2.))) +. (x *. phi)
    | Floor | Ceil | Round -> if proxy then 1. else 0.
    | Sign -> if proxy then proxy_alpha else 0.
    | Reciprocal -> -.(y *. y)
    | Erf -> 2. /. Float.sqrt Float.pi *. Float.exp (-.(x *. x))
    | Softplus -> 1. /. (1. +. Float.exp (-.x))
    | Softsign ->
        let d = 1. +. Float.abs x in
        1. /. (d *. d)
    | Elu -> if x > 0. then 1. else Float.exp x
    | Selu ->
        if x > 0. then Nnsmith_ops.Eval.selu_lambda
        else Nnsmith_ops.Eval.selu_lambda *. Nnsmith_ops.Eval.selu_alpha *. Float.exp x
    | Hardswish ->
        if x <= -3. then if proxy then proxy_alpha else 0.
        else if x >= 3. then 1.
        else ((2. *. x) +. 3.) /. 6.
    | Hardsigmoid ->
        if x > -3. && x < 3. then 1. /. 6.
        else if proxy then proxy_alpha
        else 0.

  (* Per-element binary partials (dz/dx, dz/dy). *)
  let binary_partials ~proxy (b : Op.binary) (x : float) (y : float) :
      float * float =
    match b with
    | Op.Add -> (1., 1.)
    | Sub -> (1., -1.)
    | Mul -> (y, x)
    | Div -> (1. /. y, -.x /. (y *. y))
    | Pow ->
        let dz_dx = if x = 0. then 0. else y *. Float.pow x (y -. 1.) in
        let dz_dy = if x > 0. then Float.pow x y *. Float.log x else 0. in
        (dz_dx, dz_dy)
    | Max2 ->
        if x > y then (1., 0.)
        else if x < y then (0., 1.)
        else (0.5, 0.5)
    | Min2 ->
        if x < y then (1., 0.)
        else if x > y then (0., 1.)
        else (0.5, 0.5)
    | Mod2 ->
        let q = if proxy then -.Float.trunc (x /. y) else 0. in
        (1., q)

  let elementwise_unary ~proxy u x out gout =
    Nd.init_f Dtype.F64 (Nd.shape x) (fun i ->
        Nd.to_float gout i
        *. unary_derivative ~proxy u (Nd.to_float x i) (Nd.to_float out i))

  let broadcast_binary_grads ~proxy b x y gout =
    let out_shape = Nd.shape gout in
    let ox = broadcast_offsets ~src:(Nd.shape x) ~dst:out_shape
    and oy = broadcast_offsets ~src:(Nd.shape y) ~dst:out_shape in
    let gx = Nd.create Dtype.F64 (Nd.shape x)
    and gy = Nd.create Dtype.F64 (Nd.shape y) in
    for i = 0 to Nd.numel gout - 1 do
      let xv = Nd.to_float x (ox i) and yv = Nd.to_float y (oy i) in
      let dx, dy = binary_partials ~proxy b xv yv in
      let g = Nd.to_float gout i in
      Nd.set_f gx (ox i) (Nd.get_f gx (ox i) +. (g *. dx));
      Nd.set_f gy (oy i) (Nd.get_f gy (oy i) +. (g *. dy))
    done;
    (gx, gy)

  let swap_last_two t =
    let r = Nd.rank t in
    let perm = Array.init r Fun.id in
    perm.(r - 1) <- r - 2;
    perm.(r - 2) <- r - 1;
    Transform.transpose t perm

  let matmul_grads a b gout =
    let ra = Nd.rank a and rb = Nd.rank b in
    let a2 = if ra = 1 then Transform.unsqueeze a 0 else a in
    let b2 = if rb = 1 then Transform.unsqueeze b 1 else b in
    let sa = Nd.shape a2 and sb = Nd.shape b2 in
    let ra2 = Array.length sa and rb2 = Array.length sb in
    let m = sa.(ra2 - 2) and n = sb.(rb2 - 1) in
    let batch =
      match
        Shape.broadcast (Array.sub sa 0 (ra2 - 2)) (Array.sub sb 0 (rb2 - 2))
      with
      | Some s -> s
      | None -> [||]
    in
    let out2_shape = Array.append batch [| m; n |] in
    let gout2 = Transform.reshape (Nd.cast gout Dtype.F64) out2_shape in
    let a64 = Nd.cast a2 Dtype.F64 and b64 = Nd.cast b2 Dtype.F64 in
    let ga2 = Linalg.matmul gout2 (swap_last_two b64) in
    let gb2 = Linalg.matmul (swap_last_two a64) gout2 in
    let ga = Transform.reshape (reduce_to ga2 sa) (Nd.shape a) in
    let gb = Transform.reshape (reduce_to gb2 sb) (Nd.shape b) in
    (ga, gb)

  let conv2d_grads ~stride ~padding x w gout =
    let sx = Nd.shape x and sw = Nd.shape w in
    let n = sx.(0) and c = sx.(1) and h = sx.(2) and wd = sx.(3) in
    let f = sw.(0) and kh = sw.(2) and kw = sw.(3) in
    let so = Nd.shape gout in
    let oh = so.(2) and ow = so.(3) in
    let gx = Nd.create Dtype.F64 sx and gw = Nd.create Dtype.F64 sw in
    for ni = 0 to n - 1 do
      for fi = 0 to f - 1 do
        for ohi = 0 to oh - 1 do
          for owi = 0 to ow - 1 do
            let g = Nd.to_float gout ((((ni * f) + fi) * oh + ohi) * ow + owi) in
            if g <> 0. then
              for ci = 0 to c - 1 do
                for ki = 0 to kh - 1 do
                  for kj = 0 to kw - 1 do
                    let hi = (ohi * stride) - padding + ki
                    and wi = (owi * stride) - padding + kj in
                    if hi >= 0 && hi < h && wi >= 0 && wi < wd then begin
                      let xoff = (((ni * c) + ci) * h + hi) * wd + wi in
                      let woff = (((fi * c) + ci) * kh + ki) * kw + kj in
                      Nd.set_f gx xoff
                        (Nd.get_f gx xoff +. (g *. Nd.to_float w woff));
                      Nd.set_f gw woff
                        (Nd.get_f gw woff +. (g *. Nd.to_float x xoff))
                    end
                  done
                done
              done
          done
        done
      done
    done;
    (gx, gw)

  let pool2d_grads ~kind ~kernel ~stride ~padding x gout =
    let sx = Nd.shape x in
    let n = sx.(0) and c = sx.(1) and h = sx.(2) and w = sx.(3) in
    let kh, kw = kernel in
    let so = Nd.shape gout in
    let oh = so.(2) and ow = so.(3) in
    let gx = Nd.create Dtype.F64 sx in
    for ni = 0 to n - 1 do
      for ci = 0 to c - 1 do
        for ohi = 0 to oh - 1 do
          for owi = 0 to ow - 1 do
            let g = Nd.to_float gout ((((ni * c) + ci) * oh + ohi) * ow + owi) in
            if g <> 0. then begin
              (* collect in-bounds window cells *)
              let cells = ref [] in
              for ki = 0 to kh - 1 do
                for kj = 0 to kw - 1 do
                  let hi = (ohi * stride) - padding + ki
                  and wi = (owi * stride) - padding + kj in
                  if hi >= 0 && hi < h && wi >= 0 && wi < w then
                    cells := ((((ni * c) + ci) * h + hi) * w + wi) :: !cells
                done
              done;
              match kind with
              | Linalg.Avg_pool ->
                  let share = g /. float_of_int (max 1 (List.length !cells)) in
                  List.iter
                    (fun off -> Nd.set_f gx off (Nd.get_f gx off +. share))
                    !cells
              | Linalg.Max_pool -> (
                  match !cells with
                  | [] -> ()
                  | first :: rest ->
                      let best = ref first and best_v = ref (Nd.to_float x first) in
                      List.iter
                        (fun off ->
                          let v = Nd.to_float x off in
                          if v > !best_v then begin
                            best := off;
                            best_v := v
                          end)
                        rest;
                      Nd.set_f gx !best (Nd.get_f gx !best +. g))
            end
          done
        done
      done
    done;
    gx

  let softmax_grad ~axis out gout =
    (* dx = y * (g - sum(g * y, axis)) *)
    let gy = Nd.map2_f Dtype.F64 ( *. ) gout out in
    let s = Reduce.sum ~keepdims:true ~axes:[ axis ] gy in
    let centered = Nd.map2_f Dtype.F64 ( -. ) (Nd.cast gout Dtype.F64) s in
    Nd.map2_f Dtype.F64 ( *. ) centered out

  let reduce_grads (r : Op.reduce) ~axes ~keepdims x out gout =
    let in_shape = Nd.shape x in
    let rank = Array.length in_shape in
    (* re-insert reduced axes as size-1 so gout broadcasts over the input *)
    let expand t =
      if keepdims then t
      else begin
        let dims = ref (Array.to_list (Nd.shape t)) in
        List.iter
          (fun a ->
            let before = List.filteri (fun i _ -> i < a) !dims in
            let after = List.filteri (fun i _ -> i >= a) !dims in
            dims := before @ [ 1 ] @ after)
          (List.sort compare axes);
        Transform.reshape t (Array.of_list !dims)
      end
    in
    ignore rank;
    let g = expand (Nd.cast gout Dtype.F64) in
    let window =
      List.fold_left (fun acc a -> acc * in_shape.(a)) 1 axes
    in
    match r with
    | Op.R_sum -> Nd.broadcast_to g in_shape
    | R_mean ->
        Nd.map_f (fun v -> v /. float_of_int window) (Nd.broadcast_to g in_shape)
    | R_max | R_min ->
        let o = expand out in
        let go = broadcast_offsets ~src:(Nd.shape o) ~dst:in_shape in
        Nd.init_f Dtype.F64 in_shape (fun i ->
            if Nd.to_float x i = Nd.to_float o (go i) then Nd.to_float g (go i)
            else 0.)
    | R_prod ->
        let o = expand out in
        let go = broadcast_offsets ~src:(Nd.shape o) ~dst:in_shape in
        Nd.init_f Dtype.F64 in_shape (fun i ->
            let xi = Nd.to_float x i in
            if xi = 0. then 0.
            else Nd.to_float g (go i) *. Nd.to_float o (go i) /. xi)

  (** Gradients of [gout . op(ins)] w.r.t. each input; [None] marks inputs with
      no (or discarded) gradient. *)
  let vjp ~proxy (op : int Op.t) ~(ins : Nd.t list) ~(out : Nd.t)
      ~(gout : Nd.t) : Nd.t option list =
    match (op, ins) with
    | Op.Leaf _, _ -> []
    | Op.Unary u, [ x ] ->
        if Dtype.is_float (Nd.dtype x) then
          [ Some (elementwise_unary ~proxy u x out gout) ]
        else [ None ]
    | Op.Binary b, [ x; y ] ->
        if Dtype.is_float (Nd.dtype x) then begin
          let gx, gy = broadcast_binary_grads ~proxy b x y gout in
          [ Some gx; Some gy ]
        end
        else [ None; None ]
    | Op.Compare _, [ _; _ ] | Op.Logical _, [ _; _ ] -> [ None; None ]
    | Op.Not, [ _ ] -> [ None ]
    | Op.Clip { c_lo; c_hi }, [ x ] ->
        [
          Some
            (Nd.init_f Dtype.F64 (Nd.shape x) (fun i ->
                 let v = Nd.to_float x i in
                 let d =
                   if v >= c_lo && v <= c_hi then 1.
                   else if proxy then proxy_alpha
                   else 0.
                 in
                 Nd.to_float gout i *. d));
        ]
    | Op.Leaky_relu { alpha }, [ x ] ->
        [
          Some
            (Nd.init_f Dtype.F64 (Nd.shape x) (fun i ->
                 let d = if Nd.to_float x i >= 0. then 1. else alpha in
                 Nd.to_float gout i *. d));
        ]
    | Op.Cast target, [ x ] ->
        if Dtype.is_float target && Dtype.is_float (Nd.dtype x) then
          [ Some (Nd.cast gout Dtype.F64) ]
        else [ None ]
    | Op.Softmax { sm_axis }, [ _ ] -> [ Some (softmax_grad ~axis:sm_axis out gout) ]
    | Op.Arg_max _, [ _ ] | Op.Arg_min _, [ _ ] -> [ None ]
    | Op.Reduce (r, { r_axes; r_keepdims }), [ x ] ->
        if Dtype.is_float (Nd.dtype x) then
          [ Some (reduce_grads r ~axes:r_axes ~keepdims:r_keepdims x out gout) ]
        else [ None ]
    | Op.Mat_mul, [ a; b ] ->
        let ga, gb = matmul_grads a b gout in
        [ Some ga; Some gb ]
    | Op.Conv2d { stride; padding; _ }, [ x; w ] ->
        let gx, gw = conv2d_grads ~stride ~padding x w gout in
        [ Some gx; Some gw ]
    | Op.Pool2d (kind, { p_kh; p_kw; p_stride; p_padding }), [ x ] ->
        let kind =
          match kind with Op.P_max -> Linalg.Max_pool | P_avg -> Linalg.Avg_pool
        in
        [
          Some
            (pool2d_grads ~kind ~kernel:(p_kh, p_kw) ~stride:p_stride
               ~padding:p_padding x gout);
        ]
    | Op.Reshape _, [ x ]
    | Op.Flatten _, [ x ]
    | Op.Squeeze _, [ x ]
    | Op.Unsqueeze _, [ x ] ->
        if Dtype.is_float (Nd.dtype x) then
          [ Some (Transform.reshape (Nd.cast gout Dtype.F64) (Nd.shape x)) ]
        else [ None ]
    | Op.Transpose perm, [ x ] ->
        if Dtype.is_float (Nd.dtype x) then begin
          let inv = Array.make (Array.length perm) 0 in
          Array.iteri (fun i p -> inv.(p) <- i) perm;
          [ Some (Transform.transpose (Nd.cast gout Dtype.F64) inv) ]
        end
        else [ None ]
    | Op.Slice { s_axis; s_start; _ }, [ x ] ->
        if Dtype.is_float (Nd.dtype x) then begin
          let gx = Nd.create Dtype.F64 (Nd.shape x) in
          let out_shape = Nd.shape gout in
          let n = Nd.numel gout in
          for i = 0 to n - 1 do
            let idx = Shape.unravel out_shape i in
            idx.(s_axis) <- idx.(s_axis) + s_start;
            let off = Shape.ravel (Nd.shape x) idx in
            Nd.set_f gx off (Nd.to_float gout i)
          done;
          [ Some gx ]
        end
        else [ None ]
    | Op.Pad (_, { pad_before; _ }), [ x ] ->
        if Dtype.is_float (Nd.dtype x) then begin
          (* interior extraction; border replication contributions are dropped
             (a proxy, adequate for loss steering) *)
          let gx = Nd.create Dtype.F64 (Nd.shape x) in
          let sx = Nd.shape x in
          let sg = Nd.shape gout in
          let before = Array.of_list pad_before in
          for i = 0 to Nd.numel x - 1 do
            let idx = Shape.unravel sx i in
            let gidx = Array.mapi (fun k v -> v + before.(k)) idx in
            if
              Array.for_all2 (fun v d -> v >= 0 && v < d) gidx sg
            then Nd.set_f gx i (Nd.to_float gout (Shape.ravel sg gidx))
          done;
          [ Some gx ]
        end
        else [ None ]
    | Op.Concat { cat_axis; _ }, xs ->
        if List.for_all (fun x -> Dtype.is_float (Nd.dtype x)) xs then begin
          let offset = ref 0 in
          List.map
            (fun x ->
              let d = (Nd.shape x).(cat_axis) in
              let r = Nd.rank x in
              let starts = Array.make r 0
              and stops = Array.copy (Nd.shape gout)
              and steps = Array.make r 1 in
              starts.(cat_axis) <- !offset;
              stops.(cat_axis) <- !offset + d;
              offset := !offset + d;
              Some
                (Transform.slice (Nd.cast gout Dtype.F64) ~starts ~stops ~steps))
            xs
        end
        else List.map (fun _ -> None) xs
    | Op.Where, [ c; t; f ] ->
        if Dtype.is_float (Nd.dtype t) then begin
          let out_shape = Nd.shape gout in
          let oc = broadcast_offsets ~src:(Nd.shape c) ~dst:out_shape
          and ot = broadcast_offsets ~src:(Nd.shape t) ~dst:out_shape
          and of_ = broadcast_offsets ~src:(Nd.shape f) ~dst:out_shape in
          let gt = Nd.create Dtype.F64 (Nd.shape t)
          and gf = Nd.create Dtype.F64 (Nd.shape f) in
          for i = 0 to Nd.numel gout - 1 do
            let g = Nd.to_float gout i in
            if Nd.get_b c (oc i) then Nd.set_f gt (ot i) (Nd.get_f gt (ot i) +. g)
            else Nd.set_f gf (of_ i) (Nd.get_f gf (of_ i) +. g)
          done;
          [ None; Some gt; Some gf ]
        end
        else [ None; None; None ]
    | Op.Expand _, [ x ] ->
        if Dtype.is_float (Nd.dtype x) then
          [ Some (reduce_to (Nd.cast gout Dtype.F64) (Nd.shape x)) ]
        else [ None ]
    | Op.Gather { g_axis }, [ data; indices ] ->
        if Dtype.is_float (Nd.dtype data) then begin
          (* scatter-add the output gradient back through the (clamped) index *)
          let sd = Nd.shape data in
          let rank = Array.length sd in
          let si = Nd.shape indices in
          let ri = Array.length si in
          let out_shape = Nd.shape gout in
          let gd = Nd.create Dtype.F64 sd in
          for out_i = 0 to Nd.numel gout - 1 do
            let oidx = Shape.unravel out_shape out_i in
            let iidx = Array.sub oidx g_axis ri in
            let raw = Nd.to_int indices (Shape.ravel si iidx) in
            let j = max 0 (min (sd.(g_axis) - 1) raw) in
            let didx =
              Array.init rank (fun k ->
                  if k < g_axis then oidx.(k)
                  else if k = g_axis then j
                  else oidx.(k + ri - 1))
            in
            let off = Shape.ravel sd didx in
            Nd.set_f gd off (Nd.get_f gd off +. Nd.to_float gout out_i)
          done;
          [ Some gd; None ]
        end
        else [ None; None ]
    | Op.Tile _, [ x ] ->
        if Dtype.is_float (Nd.dtype x) then begin
          (* accumulate over repetitions by index modulo *)
          let sx = Nd.shape x in
          let out_shape = Nd.shape gout in
          let gx = Nd.create Dtype.F64 sx in
          for out_i = 0 to Nd.numel gout - 1 do
            let oidx = Shape.unravel out_shape out_i in
            let sidx = Array.mapi (fun k v -> v mod sx.(k)) oidx in
            let off = Shape.ravel sx sidx in
            Nd.set_f gx off (Nd.get_f gx off +. Nd.to_float gout out_i)
          done;
          [ Some gx ]
        end
        else [ None ]
    | _, _ -> List.map (fun _ -> None) ins
end

module Ref_backprop = struct
  module Nd = Nnsmith_tensor.Nd
  module Dtype = Nnsmith_tensor.Dtype
  module Graph = Nnsmith_ir.Graph
  module Op = Nnsmith_ir.Op

  let add_into tbl id (g : Nd.t) =
    match Hashtbl.find_opt tbl id with
    | None -> Hashtbl.replace tbl id g
    | Some prev -> Hashtbl.replace tbl id (Nd.map2_f Dtype.F64 ( +. ) prev g)

  (** [grad_wrt_leaves ~proxy g ~values ~seeds] back-propagates the cotangents
      in [seeds] (node id -> gradient of the loss w.r.t. that node's output)
      and returns the gradient at each trainable leaf (inputs and weights;
      constant fills are frozen).  [values] must contain the forward value of
      every node that is an ancestor of a seed. *)
  let grad_wrt_leaves ~proxy (g : Graph.t) ~(values : (int, Nd.t) Hashtbl.t)
      ~(seeds : (int * Nd.t) list) : (int * Nd.t) list =
    let cot : (int, Nd.t) Hashtbl.t = Hashtbl.create 32 in
    List.iter (fun (id, t) -> add_into cot id t) seeds;
    let rev_nodes = List.rev (Graph.nodes g) in
    List.iter
      (fun (n : Graph.node) ->
        match Hashtbl.find_opt cot n.id with
        | None -> ()
        | Some gout -> (
            match n.op with
            | Op.Leaf _ -> ()
            | op -> (
                match Hashtbl.find_opt values n.id with
                | None -> ()
                | Some out ->
                    let ins =
                      List.map (fun i -> Hashtbl.find values i) n.inputs
                    in
                    let grads = Ref_vjp.vjp ~proxy op ~ins ~out ~gout in
                    List.iter2
                      (fun input_id grad ->
                        match grad with
                        | Some gr -> add_into cot input_id gr
                        | None -> ())
                      n.inputs grads)))
      rev_nodes;
    List.filter_map
      (fun (n : Graph.node) ->
        match n.op with
        | Op.Leaf (Op.Model_input | Op.Model_weight) ->
            Option.map (fun g -> (n.id, g)) (Hashtbl.find_opt cot n.id)
        | _ -> None)
      (Graph.nodes g)
end

(* ------------------------------------------------------------------ *)
(* Bit comparison with the oracle.                                     *)

module Plan = Nnsmith_exec.Plan

(* Bit equality of two floats, except that any two NaNs are equal: ocamlopt
   may swap the operands of a commutative [+.] or [*.] (it prefers a memory
   operand on the right), which picks which NaN's payload a NaN + NaN
   returns, and no consumer of a gradient can tell payloads apart (a NaN
   element makes the Adam step [`Bad] whatever its bits). *)
let same_float x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  || (Float.is_nan x && Float.is_nan y)

let first_difference (a : Nd.t) (b : Nd.t) =
  let n = min (Nd.numel a) (Nd.numel b) in
  let i = ref 0 in
  while !i < n && same_float (Nd.to_float a !i) (Nd.to_float b !i) do
    incr i
  done;
  if !i = n && Nd.numel a = Nd.numel b then None else Some !i

let same_bits a b = first_difference a b = None

(* One compiled VJP run into fresh buffers, in the oracle's result shape. *)
let compiled_vjp ~proxy op ~ins ~out ~gout =
  let ty t = (Nd.dtype t, Nd.shape t) in
  let v =
    Vjp.compile ~proxy op ~ins:(Array.of_list (List.map ty ins)) ~out:(ty out)
  in
  let ins = Array.of_list ins in
  let dsts =
    Array.map
      (fun t ->
        Nd.float_data (Nd.full_f Dtype.F64 (Nd.shape t) Float.nan))
      ins
  in
  v.Vjp.run ~gout:(Nd.float_data gout) ins out dsts;
  Array.to_list
    (Array.mapi
       (fun k d ->
         if v.Vjp.grads.(k) then
           Some { Nd.dtype = Dtype.F64; shape = Nd.shape ins.(k); data = Nd.F d }
         else None)
       dsts)

let check_vjp_bits ~proxy name op ~ins ~out ~gout =
  let want = Ref_vjp.vjp ~proxy op ~ins ~out ~gout in
  let got = compiled_vjp ~proxy op ~ins ~out ~gout in
  if List.length want <> List.length got then
    Alcotest.failf "%s: %d vs %d gradients" name (List.length want)
      (List.length got);
  List.iteri
    (fun k (w, g) ->
      match (w, g) with
      | None, None -> ()
      | Some w, Some g when same_bits w g -> ()
      | _ -> Alcotest.failf "%s: input %d gradient differs from the oracle" name k)
    (List.combine want got);
  want

(* ------------------------------------------------------------------ *)
(* Finite-difference gradient checking for the oracle's VJPs, which the  *)
(* compiled VJPs must also match bit for bit.                           *)

let sum_all t =
  let acc = ref 0. in
  for i = 0 to Nd.numel t - 1 do
    acc := !acc +. Nd.to_float t i
  done;
  !acc

(* d(sum(op(ins)))/d(ins.(k).(i)) via central differences. *)
let numeric_grad op ins k i eps =
  let perturb delta =
    let ins' =
      List.mapi
        (fun j t ->
          if j = k then begin
            let c = Nd.copy t in
            Nd.set_f c i (Nd.get_f c i +. delta);
            c
          end
          else t)
        ins
    in
    sum_all (Eval.eval op ins')
  in
  (perturb eps -. perturb (-.eps)) /. (2. *. eps)

let gradcheck ?(eps = 1e-5) ?(tol = 1e-3) name op ins =
  let out = Eval.eval op ins in
  let gout = Nd.full_f Dtype.F64 (Nd.shape out) 1. in
  let grads = check_vjp_bits ~proxy:true name op ~ins ~out ~gout in
  List.iteri
    (fun k g ->
      match g with
      | None -> ()
      | Some g ->
          let x = List.nth ins k in
          for i = 0 to Nd.numel x - 1 do
            let analytic = Nd.to_float g i in
            let numeric = numeric_grad op ins k i eps in
            if
              Float.abs (analytic -. numeric)
              > tol *. Float.max 1. (Float.abs numeric)
            then
              Alcotest.failf "%s: input %d elem %d: analytic %g vs numeric %g"
                name k i analytic numeric
          done)
    grads

let t64 dims xs = Nd.of_floats Dtype.F64 (Array.of_list dims) (Array.of_list xs)

(* Distinct, unevenly spaced values, so max-pool windows have no ties. *)
let ramp dims =
  let n = List.fold_left ( * ) 1 dims in
  Nd.init_f Dtype.F64 (Array.of_list dims) (fun i ->
      float_of_int ((i * 7) mod n) +. (0.01 *. float_of_int i) -. 2.)

let test_vjp_unary () =
  let x = t64 [ 4 ] [ 0.3; 1.2; -0.7; 2.1 ] in
  List.iter
    (fun u -> gradcheck (Op.unary_name u) (Op.Unary u) [ x ])
    [
      Op.Exp; Op.Tanh; Op.Sigmoid; Op.Sin; Op.Cos; Op.Atan; Op.Erf;
      Op.Softplus; Op.Softsign; Op.Elu; Op.Selu; Op.Hardsigmoid;
    ];
  gradcheck "Hardswish (interior)" (Op.Unary Op.Hardswish)
    [ t64 [ 3 ] [ -2.; 0.5; 2. ] ];
  (* Gelu's kernel uses an erf approximation; its analytic derivative is
     exact, so allow a looser tolerance *)
  gradcheck ~tol:5e-2 "Gelu" (Op.Unary Op.Gelu) [ x ];
  (* positive-domain ops *)
  let pos = t64 [ 3 ] [ 0.5; 1.5; 3.2 ] in
  List.iter
    (fun u -> gradcheck (Op.unary_name u) (Op.Unary u) [ pos ])
    [ Op.Log; Op.Log2; Op.Sqrt; Op.Reciprocal ];
  (* |x| < 1 *)
  gradcheck "Asin" (Op.Unary Op.Asin) [ t64 [ 2 ] [ 0.3; -0.6 ] ];
  gradcheck "Relu away from 0" (Op.Unary Op.Relu) [ t64 [ 2 ] [ 1.5; 2. ] ]

let test_vjp_binary_broadcast () =
  let a = t64 [ 2; 2 ] [ 1.; 2.; 3.; 4. ] and b = t64 [ 2 ] [ 0.5; 2. ] in
  gradcheck "Add" (Op.Binary Op.Add) [ a; b ];
  gradcheck "Sub" (Op.Binary Op.Sub) [ a; b ];
  gradcheck "Mul" (Op.Binary Op.Mul) [ a; b ];
  gradcheck "Div" (Op.Binary Op.Div) [ a; b ];
  gradcheck "Pow" (Op.Binary Op.Pow) [ a; b ];
  gradcheck "Max" (Op.Binary Op.Max2) [ a; b ];
  (* both operands broadcast: [2;1;3] - [4;1] -> [2;4;3] *)
  gradcheck "Sub both broadcast" (Op.Binary Op.Sub)
    [ ramp [ 2; 1; 3 ]; ramp [ 4; 1 ] ]

let test_vjp_matmul () =
  gradcheck "MatMul 2d" Op.Mat_mul
    [ t64 [ 2; 3 ] [ 1.; 2.; 3.; 4.; 5.; 6. ]; t64 [ 3; 2 ] [ 1.; 0.; 2.; 1.; 0.; 3. ] ];
  gradcheck "MatMul vec" Op.Mat_mul
    [ t64 [ 3 ] [ 1.; 2.; 3. ]; t64 [ 3; 2 ] [ 1.; 0.; 2.; 1.; 0.; 3. ] ];
  gradcheck "MatMul batched" Op.Mat_mul [ ramp [ 2; 3; 4 ]; ramp [ 2; 4; 5 ] ];
  gradcheck "MatMul batch-broadcast" Op.Mat_mul
    [ ramp [ 1; 3; 4 ]; ramp [ 2; 4; 5 ] ];
  gradcheck "MatMul rank-3 @ rank-2" Op.Mat_mul [ ramp [ 2; 3; 4 ]; ramp [ 4; 2 ] ];
  gradcheck "MatMul vec . vec" Op.Mat_mul [ ramp [ 4 ]; ramp [ 4 ] ]

let test_vjp_conv_pool () =
  let x = t64 [ 1; 1; 3; 3 ] [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. ] in
  let w = t64 [ 1; 1; 2; 2 ] [ 1.; 0.5; -1.; 2. ] in
  gradcheck "Conv2d"
    (Op.Conv2d { out_channels = 1; kh = 2; kw = 2; stride = 1; padding = 0 })
    [ x; w ];
  gradcheck "Conv2d stride 2, padding 1, 2 -> 3 channels"
    (Op.Conv2d { out_channels = 3; kh = 3; kw = 3; stride = 2; padding = 1 })
    [ ramp [ 2; 2; 5; 5 ]; ramp [ 3; 2; 3; 3 ] ];
  gradcheck "AvgPool"
    (Op.Pool2d (Op.P_avg, { p_kh = 2; p_kw = 2; p_stride = 1; p_padding = 0 }))
    [ x ];
  gradcheck "MaxPool"
    (Op.Pool2d (Op.P_max, { p_kh = 2; p_kw = 2; p_stride = 1; p_padding = 0 }))
    [ x ];
  (* windows wider than the input, with padding *)
  let wide = ramp [ 1; 2; 3; 3 ] in
  List.iter
    (fun (kind, name) ->
      gradcheck (name ^ " 5x5 window, padding 2, over 3x3")
        (Op.Pool2d (kind, { p_kh = 5; p_kw = 5; p_stride = 1; p_padding = 2 }))
        [ wide ];
      gradcheck (name ^ " 4x4 window, stride 2, padding 1, over 3x3")
        (Op.Pool2d (kind, { p_kh = 4; p_kw = 4; p_stride = 2; p_padding = 1 }))
        [ wide ];
      gradcheck (name ^ " 9x9 window over 1x1")
        (Op.Pool2d (kind, { p_kh = 9; p_kw = 9; p_stride = 1; p_padding = 4 }))
        [ t64 [ 1; 1; 1; 1 ] [ 0.7 ] ])
    [ (Op.P_avg, "AvgPool"); (Op.P_max, "MaxPool") ]

let test_vjp_softmax_reduce () =
  let x = t64 [ 2; 3 ] [ 0.1; 0.5; -0.2; 1.; 2.; 3. ] in
  gradcheck "Softmax" (Op.Softmax { sm_axis = 1 }) [ x ];
  gradcheck "ReduceSum"
    (Op.Reduce (Op.R_sum, { r_axes = [ 1 ]; r_keepdims = false }))
    [ x ];
  gradcheck "ReduceMean"
    (Op.Reduce (Op.R_mean, { r_axes = [ 0 ]; r_keepdims = true }))
    [ x ];
  gradcheck "ReduceMax"
    (Op.Reduce (Op.R_max, { r_axes = [ 1 ]; r_keepdims = false }))
    [ x ]

let test_vjp_shape_ops () =
  let x = t64 [ 2; 3 ] [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  gradcheck "Reshape" (Op.Reshape [ 3; 2 ]) [ x ];
  gradcheck "Transpose" (Op.Transpose [| 1; 0 |]) [ x ];
  gradcheck "Transpose rank 4" (Op.Transpose [| 2; 0; 3; 1 |]) [ ramp [ 2; 3; 2; 2 ] ];
  gradcheck "Slice" (Op.Slice { s_axis = 1; s_start = 1; s_stop = 3 }) [ x ];
  gradcheck "Pad"
    (Op.Pad (Op.Pad_constant 0., { pad_before = [ 1; 0 ]; pad_after = [ 0; 1 ] }))
    [ x ];
  gradcheck "Concat" (Op.Concat { cat_axis = 0; cat_n = 2 }) [ x; x ];
  gradcheck "Concat 3 inputs on axis 2" (Op.Concat { cat_axis = 2; cat_n = 3 })
    [ ramp [ 2; 2; 1 ]; ramp [ 2; 2; 3 ]; ramp [ 2; 2; 2 ] ];
  gradcheck "Expand" (Op.Expand [ 4; 2; 3 ]) [ x ];
  gradcheck "Unsqueeze" (Op.Unsqueeze { usq_axis = 1 }) [ x ];
  gradcheck "Tile" (Op.Tile [ 2; 1 ]) [ x ];
  gradcheck "Tile both axes" (Op.Tile [ 2; 3 ]) [ ramp [ 2; 2 ] ];
  (* Gather: gradient scatter-adds through the index *)
  let idx = Nd.of_ints Dtype.I64 [| 2 |] [| 1; 1 |] in
  let out = Eval.eval (Op.Gather { g_axis = 0 }) [ x; idx ] in
  let gout = Nd.full_f Dtype.F64 (Nd.shape out) 1. in
  match
    check_vjp_bits ~proxy:true "Gather" (Op.Gather { g_axis = 0 }) ~ins:[ x; idx ]
      ~out ~gout
  with
  | [ Some gd; None ] ->
      check "row 1 hit twice" true (Nd.to_float gd 3 = 2.);
      check "row 0 untouched" true (Nd.to_float gd 0 = 0.)
  | _ -> Alcotest.fail "gather vjp structure"

let test_vjp_where () =
  let c = Nd.init_b [| 2; 2 |] (fun i -> i mod 2 = 0) in
  let t = t64 [ 2; 2 ] [ 1.; 2.; 3.; 4. ] and f = t64 [ 2 ] [ 9.; 8. ] in
  let out = Eval.eval Op.Where [ c; t; f ] in
  let gout = Nd.full_f Dtype.F64 [| 2; 2 |] 1. in
  (match check_vjp_bits ~proxy:true "Where" Op.Where ~ins:[ c; t; f ] ~out ~gout with
  | [ None; Some gt; Some gf ] ->
      check "grad routed by condition" true
        (Nd.to_float gt 0 = 1. && Nd.to_float gt 1 = 0.);
      (* false branch accumulates across broadcast *)
      check "broadcast accumulation" true (Nd.to_float gf 1 = 2.)
  | _ -> Alcotest.fail "unexpected vjp structure");
  (* every operand broadcast: [2;1] condition, [3] and [2;3] branches *)
  gradcheck "Where broadcast" Op.Where
    [ Nd.init_b [| 2; 1 |] (fun i -> i = 0); ramp [ 3 ]; ramp [ 2; 3 ] ]

let test_proxy_derivatives () =
  let x = t64 [ 2 ] [ -1.5; 2.5 ] in
  let run ~proxy u =
    let out = Eval.eval (Op.Unary u) [ x ] in
    let gout = Nd.full_f Dtype.F64 [| 2 |] 1. in
    match
      check_vjp_bits ~proxy (Op.unary_name u) (Op.Unary u) ~ins:[ x ] ~out ~gout
    with
    | [ Some g ] -> g
    | _ -> Alcotest.fail "expected gradient"
  in
  (* Floor is non-differentiable: zero without proxy, nonzero with *)
  check "floor no proxy = 0" true (Nd.to_float (run ~proxy:false Op.Floor) 0 = 0.);
  check "floor proxy <> 0" true (Nd.to_float (run ~proxy:true Op.Floor) 0 <> 0.);
  (* Relu negative region: zero without proxy, small alpha with *)
  check "relu neg no proxy" true (Nd.to_float (run ~proxy:false Op.Relu) 0 = 0.);
  check "relu neg proxy" true (Nd.to_float (run ~proxy:true Op.Relu) 0 = Vjp.proxy_alpha);
  check "relu pos unchanged" true (Nd.to_float (run ~proxy:true Op.Relu) 1 = 1.)

(* ------------------------------------------------------------------ *)
(* Adam                                                                *)

let test_adam_converges () =
  (* minimise (x - 3)^2 elementwise *)
  let st = Adam.create ~lr:0.3 () in
  let x = ref (Nd.scalar_f Dtype.F64 10.) in
  for _ = 1 to 200 do
    let grad =
      Nd.scalar_f Dtype.F64 (2. *. (Nd.to_float !x 0 -. 3.))
    in
    x := Adam.update st ~id:0 ~param:!x ~grad;
    Adam.tick st
  done;
  check "converged near 3" true (Float.abs (Nd.to_float !x 0 -. 3.) < 0.2)

let test_adam_reset () =
  let st = Adam.create () in
  let x = Nd.scalar_f Dtype.F64 1. and g = Nd.scalar_f Dtype.F64 1. in
  ignore (Adam.update st ~id:0 ~param:x ~grad:g);
  Adam.tick st;
  Adam.reset st;
  (* after reset the first step is the same as from a fresh state *)
  let fresh = Adam.create () in
  let a = Adam.update st ~id:0 ~param:x ~grad:g
  and b = Adam.update fresh ~id:0 ~param:x ~grad:g in
  check "reset equals fresh" true (Nd.equal a b)

(* ------------------------------------------------------------------ *)
(* Backprop through a graph: the compiled reverse program over a plan  *)

(* A plan holding every node's value under [binding]. *)
let plan_of g binding =
  let plan = Plan.build g in
  ignore (Plan.run_reference plan binding);
  plan

let test_backprop_chain () =
  (* z = relu(x) * y: dz/dx = y where x > 0, dz/dy = relu(x) *)
  let g = Graph.empty in
  let g, x = B.input g Dtype.F64 [ 2 ] in
  let g, y = B.weight g Dtype.F64 [ 2 ] in
  let g, r = B.op g (Op.Unary Op.Relu) [ x ] in
  let g, z = B.op g (Op.Binary Op.Mul) [ r; y ] in
  let xv = t64 [ 2 ] [ 2.; -3. ] and yv = t64 [ 2 ] [ 5.; 7. ] in
  let prog = Backprop.create ~proxy:false (plan_of g [ (x, xv); (y, yv) ]) in
  let seeds = [ (z, Nd.full_f Dtype.F64 [| 2 |] 1.) ] in
  let grads = Backprop.run prog ~seeds in
  check "leaves in graph order" true (List.map fst grads = [ x; y ]);
  let gx = List.assoc x grads and gy = List.assoc y grads in
  check "dz/dx = y (x>0)" true (Nd.to_float gx 0 = 5.);
  check "dz/dx = 0 (x<0, no proxy)" true (Nd.to_float gx 1 = 0.);
  check "dz/dy = relu(x)" true (Nd.to_float gy 0 = 2. && Nd.to_float gy 1 = 0.)

let test_backprop_fanout_accumulates () =
  (* z = x + x: dz/dx = 2 *)
  let g = Graph.empty in
  let g, x = B.input g Dtype.F64 [ 1 ] in
  let g, z = B.op g (Op.Binary Op.Add) [ x; x ] in
  let xv = t64 [ 1 ] [ 1. ] in
  let prog = Backprop.create ~proxy:false (plan_of g [ (x, xv) ]) in
  let grads =
    Backprop.run prog ~seeds:[ (z, Nd.full_f Dtype.F64 [| 1 |] 1.) ]
  in
  check "fanout sums" true (Nd.to_float (List.assoc x grads) 0 = 2.);
  (* a second pass starts from clean cotangents *)
  let grads =
    Backprop.run prog ~seeds:[ (z, Nd.full_f Dtype.F64 [| 1 |] 3.) ]
  in
  check "buffers reset between passes" true
    (Nd.to_float (List.assoc x grads) 0 = 6.)

(* ------------------------------------------------------------------ *)
(* The oracle property: on random graphs and bindings seeded with NaN,   *)
(* +-Inf, -0.0 and ties, the compiled reverse program returns the        *)
(* oracle's leaf-gradient bits, with proxies on and off, across repeated *)
(* passes of one program.                                                *)

(* Values that stress the accumulation rules: signed zeros, non-finite
   values, small integers (max-pool ties, exact zeros in products) and
   plain random floats. *)
let special rng =
  match Random.State.int rng 12 with
  | 0 -> Float.nan
  | 1 -> Float.infinity
  | 2 -> Float.neg_infinity
  | 3 | 4 -> -0.
  | 5 -> 0.
  | 6 | 7 | 8 -> float_of_int (Random.State.int rng 5 - 2)
  | _ -> Random.State.float rng 6. -. 3.

(* Mostly benign values, with a sprinkle of specials: a graph fed only NaN
   and infinities computes little but NaN. *)
let special_tensor ?(rate = 4) rng dtype shape =
  Nd.init_f dtype shape (fun _ ->
      if Random.State.int rng rate = 0 then special rng
      else if Random.State.bool rng then
        float_of_int (Random.State.int rng 5 - 2)
      else Random.State.float rng 4. -. 2.)

let special_binding rng g =
  List.filter_map
    (fun (n : Graph.node) ->
      let t = n.Graph.out_type in
      let dtype = Nnsmith_ir.Ttype.Conc.dtype t
      and shape = Nnsmith_ir.Ttype.Conc.shape t in
      match n.Graph.op with
      | Op.Leaf (Op.Model_input | Op.Model_weight) when Dtype.is_float dtype ->
          Some (n.Graph.id, special_tensor rng dtype shape)
      | Op.Leaf ((Op.Model_input | Op.Model_weight) as kind) ->
          Some (n.Graph.id, Runner.tensor_of_leaf rng kind t ~lo:(-2.) ~hi:3.)
      | _ -> None)
    (Graph.nodes g)

(* Seeds on the last float node and up to two random ones (a node may be
   seeded twice), with cotangents that include signed zeros and non-finite
   values. *)
let random_seeds rng plan =
  let floats =
    List.filter
      (fun i -> Dtype.is_float (Nd.dtype (Plan.slot_value plan i)))
      (List.init (Plan.slot_count plan) Fun.id)
    |> Array.of_list
  in
  let nf = Array.length floats in
  if nf = 0 then []
  else
    List.map
      (fun i ->
        ( (Plan.slot_node plan i).Graph.id,
          special_tensor ~rate:3 rng Dtype.F64
            (Nd.shape (Plan.slot_value plan i)) ))
      (floats.(nf - 1)
      :: List.init (Random.State.int rng 3) (fun _ ->
             floats.(Random.State.int rng nf)))

let oracle_grads ~proxy g plan seeds =
  let values = Hashtbl.create 32 in
  for i = 0 to Plan.slot_count plan - 1 do
    Hashtbl.replace values (Plan.slot_node plan i).Graph.id (Plan.slot_value plan i)
  done;
  Ref_backprop.grad_wrt_leaves ~proxy g ~values ~seeds

(* Compare one backward pass; [false] when the forward graph is degenerate
   (the oracle has nothing to propagate). *)
let compare_pass ~what ~proxy g plan prog seeds =
  let want = oracle_grads ~proxy g plan seeds in
  let got = Backprop.run prog ~seeds in
  if List.map fst want <> List.map fst got then
    Alcotest.failf "%s: leaves [%s] vs oracle [%s]" what
      (String.concat ";" (List.map (fun (i, _) -> string_of_int i) got))
      (String.concat ";" (List.map (fun (i, _) -> string_of_int i) want));
  List.iter2
    (fun (id, w) (_, c) ->
      match first_difference w c with
      | None -> ()
      | Some i ->
          let bits t =
            if i < Nd.numel t then
              Printf.sprintf "%h (%Lx)" (Nd.to_float t i)
                (Int64.bits_of_float (Nd.to_float t i))
            else "-"
          in
          Alcotest.failf "%s: leaf %d element %d: %s, oracle %s" what id i
            (bits c) (bits w))
    want got;
  want <> []

let graphs_for_property () =
  List.filter_map
    (fun seed ->
      match
        Nnsmith_core.Gen.generate
          { Nnsmith_core.Config.default with seed = 7001 + (seed * 13); max_nodes = 8 }
      with
      | g -> Some (Printf.sprintf "gen seed %d" seed, g)
      | exception Nnsmith_core.Gen.Gen_failure _ -> None)
    (List.init 120 Fun.id)

(* Hand-built graphs reaching the loops the compiled VJPs index
   differently: pools with ties and windows wider than the input, strided
   padded convs, broadcast matmuls, multi-input concats, rank-4 transposes,
   broadcast Where/Sub, Tile, and fan-in through repeated operands. *)
let targeted_graphs () =
  let open B in
  let mk f = let g, _ = f Graph.empty in g in
  [
    ( "max/avg pool, wide windows, fan-in",
      mk (fun g ->
          let g, x = input g Dtype.F32 [ 1; 2; 3; 3 ] in
          let g, mp =
            op g (Op.Pool2d (Op.P_max, { p_kh = 5; p_kw = 5; p_stride = 1; p_padding = 2 })) [ x ]
          in
          let g, mp2 =
            op g (Op.Pool2d (Op.P_max, { p_kh = 2; p_kw = 2; p_stride = 1; p_padding = 1 })) [ x ]
          in
          let g, ap =
            op g (Op.Pool2d (Op.P_avg, { p_kh = 4; p_kw = 4; p_stride = 2; p_padding = 1 })) [ x ]
          in
          (* [s] has a cotangent from [v] before [d] and [q] add theirs *)
          let g, s = op g (Op.Binary Op.Add) [ mp; x ] in
          let g, d = op g (Op.Binary Op.Sub) [ s; s ] in
          let g, q = op g (Op.Binary Op.Div) [ s; s ] in
          let g, v = op g (Op.Binary Op.Mul) [ d; s ] in
          let g, v = op g (Op.Binary Op.Add) [ v; q ] in
          let g, u = op g (Op.Pool2d (Op.P_avg, { p_kh = 3; p_kw = 3; p_stride = 3; p_padding = 1 })) [ mp2 ] in
          let g, w = op g (Op.Binary Op.Sub) [ ap; u ] in
          let g, w = op g (Op.Reduce (Op.R_sum, { r_axes = [ 2; 3 ]; r_keepdims = true })) [ w ] in
          op g (Op.Binary Op.Add) [ v; w ]) );
    ( "conv stride 2 padding 1",
      mk (fun g ->
          let g, x = input g Dtype.F64 [ 2; 2; 5; 5 ] in
          let g, w = weight g Dtype.F64 [ 3; 2; 3; 3 ] in
          let g, c =
            op g (Op.Conv2d { out_channels = 3; kh = 3; kw = 3; stride = 2; padding = 1 }) [ x; w ]
          in
          let g, w2 = weight g Dtype.F64 [ 2; 3; 4; 4 ] in
          op g (Op.Conv2d { out_channels = 2; kh = 4; kw = 4; stride = 3; padding = 2 }) [ c; w2 ]) );
    ( "matmul broadcast and vectors",
      mk (fun g ->
          let g, a = input g Dtype.F32 [ 1; 3; 4 ] in
          let g, b = weight g Dtype.F32 [ 2; 4; 5 ] in
          let g, m = op g Op.Mat_mul [ a; b ] in
          let g, v = input g Dtype.F32 [ 5 ] in
          let g, mv = op g Op.Mat_mul [ m; v ] in
          let g, u = input g Dtype.F32 [ 3 ] in
          let g, _ = op g Op.Mat_mul [ u; u ] in
          let g, c = input g Dtype.F32 [ 2; 3; 4 ] in
          let g, d = weight g Dtype.F32 [ 4; 2 ] in
          let g, _ = op g Op.Mat_mul [ c; d ] in
          (g, mv)) );
    ( "concat, transpose, tile, where, sub",
      mk (fun g ->
          let g, a = input g Dtype.F64 [ 2; 2; 1 ] in
          let g, b = input g Dtype.F64 [ 2; 2; 3 ] in
          let g, c = op g (Op.Concat { cat_axis = 2; cat_n = 3 }) [ a; b; a ] in
          let g, r = op g (Op.Reshape [ 2; 1; 2; 5 ]) [ c ] in
          let g, t = op g (Op.Transpose [| 2; 0; 3; 1 |]) [ r ] in
          let g, tl = op g (Op.Tile [ 1; 2; 1; 3 ]) [ t ] in
          let g, w = input g Dtype.F64 [ 5; 1 ] in
          let g, s = op g (Op.Binary Op.Sub) [ tl; w ] in
          let g, m = op g (Op.Binary Op.Max2) [ s; s ] in
          let g, cond = op g (Op.Compare Op.Greater) [ b; a ] in
          let g, wh = op g Op.Where [ cond; b; a ] in
          let g, _ = op g (Op.Binary Op.Min2) [ wh; a ] in
          (g, m)) );
  ]

let test_reverse_matches_oracle () =
  let rng = Random.State.make [| 20; 26 |] in
  let compared = ref 0 in
  List.iter
    (fun (name, g) ->
      let plan = Plan.build g in
      List.iter
        (fun proxy ->
          let prog = Backprop.create ~proxy plan in
          (* three bindings through one program: buffers and compiled VJPs
             are reused across passes, as in a search *)
          for pass = 1 to 3 do
            match Plan.run_reference plan (special_binding rng g) with
            | exception (Nnsmith_ops.Eval.Eval_error _ | Invalid_argument _) -> ()
            | _ ->
                let what = Printf.sprintf "%s, proxy %b, pass %d" name proxy pass in
                if compare_pass ~what ~proxy g plan prog (random_seeds rng plan)
                then incr compared
          done)
        [ true; false ])
    (targeted_graphs () @ graphs_for_property ());
  check "non-vacuous" true (!compared >= 300)

(* ------------------------------------------------------------------ *)
(* Algorithm 3: the search                                             *)

let sqrt_graph () =
  let g = Graph.empty in
  let g, x = B.input g Dtype.F32 [ 4 ] in
  let g, s = B.op g (Op.Unary Op.Sqrt) [ x ] in
  let g, _ = B.op g (Op.Unary Op.Exp) [ s ] in
  (g, x)

let test_search_fixes_sqrt () =
  let g, _ = sqrt_graph () in
  let rng = Random.State.make [| 3 |] in
  (* start in a range that is always negative: sampling never escapes but
     the gradient walks out of it *)
  let o =
    Search.search ~max_iters:64 ~lo:(-9.) ~hi:(-1.) ~method_:Search.Gradient
      rng g
  in
  match o.binding with
  | Some b -> check "no NaN left" false (Search.binding_is_bad g b)
  | None -> Alcotest.fail "gradient search should fix Sqrt's domain"

let test_sampling_fails_where_gradient_succeeds () =
  let g, _ = sqrt_graph () in
  let rng = Random.State.make [| 3 |] in
  (* a larger cap is stricter for a search that must fail *)
  let o =
    Search.search ~max_iters:50_000 ~lo:(-9.) ~hi:(-1.)
      ~method_:Search.Sampling rng g
  in
  check "sampling stuck in negative range" true (o.binding = None)

let test_search_success_reporting () =
  let g, _ = sqrt_graph () in
  let rng = Random.State.make [| 4 |] in
  let o = Search.search ~max_iters:64 ~method_:Search.Gradient rng g in
  check "succeeded" true (o.binding <> None);
  check "iterations counted" true (o.iterations >= 1);
  check "elapsed measured" true (o.elapsed_ms >= 0.)

let test_binding_is_bad () =
  let g, x = sqrt_graph () in
  let bad = [ (x, t64 [ 4 ] [ -1.; -1.; -1.; -1. ]) ] in
  check "bad detected" true
    (Search.binding_is_bad g
       (List.map (fun (i, t) -> (i, Nd.cast t Dtype.F32)) bad));
  let good = [ (x, Nd.full_f Dtype.F32 [| 4 |] 4.) ] in
  check "good clean" false (Search.binding_is_bad g good)

let test_search_on_generated_models () =
  (* end-to-end: most generated 10-node models admit valid inputs *)
  let ok = ref 0 and n = ref 0 in
  let rng = Random.State.make [| 5 |] in
  for seed = 1 to 20 do
    match
      Nnsmith_core.Gen.generate
        { Nnsmith_core.Config.default with seed = seed * 17; max_nodes = 10 }
    with
    | exception Nnsmith_core.Gen.Gen_failure _ -> ()
    | g ->
        incr n;
        if
          (Search.search ~max_iters:64 ~method_:Search.Gradient rng g).binding
          <> None
        then incr ok
  done;
  check "high success rate" true (!ok * 10 >= !n * 7)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "grad"
    [
      ( "vjp",
        [
          tc "unary gradcheck" `Quick test_vjp_unary;
          tc "binary broadcast gradcheck" `Quick test_vjp_binary_broadcast;
          tc "matmul gradcheck" `Quick test_vjp_matmul;
          tc "conv/pool gradcheck" `Quick test_vjp_conv_pool;
          tc "softmax/reduce gradcheck" `Quick test_vjp_softmax_reduce;
          tc "shape ops gradcheck" `Quick test_vjp_shape_ops;
          tc "where routing" `Quick test_vjp_where;
          tc "proxy derivatives" `Quick test_proxy_derivatives;
        ] );
      ( "adam",
        [
          tc "converges" `Quick test_adam_converges;
          tc "reset" `Quick test_adam_reset;
        ] );
      ( "backprop",
        [
          tc "chain rule" `Quick test_backprop_chain;
          tc "fanout accumulates" `Quick test_backprop_fanout_accumulates;
          tc "compiled = oracle" `Quick test_reverse_matches_oracle;
        ] );
      ( "search",
        [
          tc "fixes sqrt domain" `Quick test_search_fixes_sqrt;
          tc "sampling stuck" `Quick test_sampling_fails_where_gradient_succeeds;
          tc "reporting" `Quick test_search_success_reporting;
          tc "binding_is_bad" `Quick test_binding_is_bad;
          tc "generated models" `Slow test_search_on_generated_models;
        ] );
    ]
