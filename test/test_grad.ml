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
(* Finite-difference gradient checking for the VJPs.                    *)

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
  let grads = Vjp.vjp ~proxy:true op ~ins ~out ~gout in
  List.iteri
    (fun k g ->
      match g with
      | None -> ()
      | Some g ->
          let x = List.nth ins k in
          for i = 0 to min 5 (Nd.numel x - 1) do
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
  gradcheck "Max" (Op.Binary Op.Max2) [ a; b ]

let test_vjp_matmul () =
  gradcheck "MatMul 2d" Op.Mat_mul
    [ t64 [ 2; 3 ] [ 1.; 2.; 3.; 4.; 5.; 6. ]; t64 [ 3; 2 ] [ 1.; 0.; 2.; 1.; 0.; 3. ] ];
  gradcheck "MatMul vec" Op.Mat_mul
    [ t64 [ 3 ] [ 1.; 2.; 3. ]; t64 [ 3; 2 ] [ 1.; 0.; 2.; 1.; 0.; 3. ] ]

let test_vjp_conv_pool () =
  let x = t64 [ 1; 1; 3; 3 ] [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. ] in
  let w = t64 [ 1; 1; 2; 2 ] [ 1.; 0.5; -1.; 2. ] in
  gradcheck "Conv2d"
    (Op.Conv2d { out_channels = 1; kh = 2; kw = 2; stride = 1; padding = 0 })
    [ x; w ];
  gradcheck "AvgPool"
    (Op.Pool2d (Op.P_avg, { p_kh = 2; p_kw = 2; p_stride = 1; p_padding = 0 }))
    [ x ];
  gradcheck "MaxPool"
    (Op.Pool2d (Op.P_max, { p_kh = 2; p_kw = 2; p_stride = 1; p_padding = 0 }))
    [ x ]

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
  gradcheck "Slice" (Op.Slice { s_axis = 1; s_start = 1; s_stop = 3 }) [ x ];
  gradcheck "Pad"
    (Op.Pad (Op.Pad_constant 0., { pad_before = [ 1; 0 ]; pad_after = [ 0; 1 ] }))
    [ x ];
  gradcheck "Concat" (Op.Concat { cat_axis = 0; cat_n = 2 }) [ x; x ];
  gradcheck "Expand" (Op.Expand [ 4; 2; 3 ]) [ x ];
  gradcheck "Unsqueeze" (Op.Unsqueeze { usq_axis = 1 }) [ x ];
  gradcheck "Tile" (Op.Tile [ 2; 1 ]) [ x ];
  (* Gather: gradient scatter-adds through the index *)
  let idx = Nd.of_ints Dtype.I64 [| 2 |] [| 1; 1 |] in
  let out = Eval.eval (Op.Gather { g_axis = 0 }) [ x; idx ] in
  let gout = Nd.full_f Dtype.F64 (Nd.shape out) 1. in
  (match Vjp.vjp ~proxy:true (Op.Gather { g_axis = 0 }) ~ins:[ x; idx ] ~out ~gout with
  | [ Some gd; None ] ->
      check "row 1 hit twice" true (Nd.to_float gd 3 = 2.);
      check "row 0 untouched" true (Nd.to_float gd 0 = 0.)
  | _ -> Alcotest.fail "gather vjp structure")

let test_vjp_where () =
  let c = Nd.init_b [| 2; 2 |] (fun i -> i mod 2 = 0) in
  let t = t64 [ 2; 2 ] [ 1.; 2.; 3.; 4. ] and f = t64 [ 2 ] [ 9.; 8. ] in
  let out = Eval.eval Op.Where [ c; t; f ] in
  let gout = Nd.full_f Dtype.F64 [| 2; 2 |] 1. in
  match Vjp.vjp ~proxy:true Op.Where ~ins:[ c; t; f ] ~out ~gout with
  | [ None; Some gt; Some gf ] ->
      check "grad routed by condition" true
        (Nd.to_float gt 0 = 1. && Nd.to_float gt 1 = 0.);
      (* false branch accumulates across broadcast *)
      check "broadcast accumulation" true (Nd.to_float gf 1 = 2.)
  | _ -> Alcotest.fail "unexpected vjp structure"

let test_proxy_derivatives () =
  let x = t64 [ 2 ] [ -1.5; 2.5 ] in
  let run ~proxy u =
    let out = Eval.eval (Op.Unary u) [ x ] in
    let gout = Nd.full_f Dtype.F64 [| 2 |] 1. in
    match Vjp.vjp ~proxy (Op.Unary u) ~ins:[ x ] ~out ~gout with
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
(* Backprop through a graph                                            *)

let test_backprop_chain () =
  (* z = relu(x) * y: dz/dx = y where x > 0, dz/dy = relu(x) *)
  let g = Graph.empty in
  let g, x = B.input g Dtype.F64 [ 2 ] in
  let g, y = B.weight g Dtype.F64 [ 2 ] in
  let g, r = B.op g (Op.Unary Op.Relu) [ x ] in
  let g, z = B.op g (Op.Binary Op.Mul) [ r; y ] in
  let xv = t64 [ 2 ] [ 2.; -3. ] and yv = t64 [ 2 ] [ 5.; 7. ] in
  let values = Hashtbl.create 8 in
  List.iter (fun (id, v) -> Hashtbl.replace values id v)
    (Runner.run g [ (x, xv); (y, yv) ]);
  let seeds = [ (z, Nd.full_f Dtype.F64 [| 2 |] 1.) ] in
  let grads = Backprop.grad_wrt_leaves ~proxy:false g ~values ~seeds in
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
  let values = Hashtbl.create 4 in
  List.iter (fun (id, v) -> Hashtbl.replace values id v) (Runner.run g [ (x, xv) ]);
  let grads =
    Backprop.grad_wrt_leaves ~proxy:false g ~values
      ~seeds:[ (z, Nd.full_f Dtype.F64 [| 1 |] 1.) ]
  in
  check "fanout sums" true (Nd.to_float (List.assoc x grads) 0 = 2.)

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
