(* Gradient-guided value search vs random sampling (§3.3, the paper's M3).

     dune exec examples/gradient_search.exe

   We build the paper's M3 pattern — a Pow with a large exponent whose
   default inputs overflow to Inf, hiding any downstream bug from
   differential testing — and show that random re-sampling cannot find
   viable inputs while the gradient search can. *)

module Op = Nnsmith_ir.Op
module Graph = Nnsmith_ir.Graph
module Dtype = Nnsmith_tensor.Dtype
module Nd = Nnsmith_tensor.Nd
module Search = Nnsmith_grad.Search
module Runner = Nnsmith_ops.Runner
module B = Nnsmith_baselines.Builder

(* M3: Y = Conv(Conv(x)); out = Pow(Y, big) — Inf unless |Y| values are tiny *)
let m3 () =
  let g = Graph.empty in
  let g, x = B.input g Dtype.F32 [ 1; 2; 6; 6 ] in
  let g, w1 = B.weight g Dtype.F32 [ 2; 2; 3; 3 ] in
  let g, c1 =
    B.op g (Op.Conv2d { out_channels = 2; kh = 3; kw = 3; stride = 1; padding = 1 })
      [ x; w1 ]
  in
  let g, w2 = B.weight g Dtype.F32 [ 2; 2; 3; 3 ] in
  let g, c2 =
    B.op g (Op.Conv2d { out_channels = 2; kh = 3; kw = 3; stride = 1; padding = 1 })
      [ c1; w2 ]
  in
  let g, big = B.leaf g (Op.Const_fill 20.) Dtype.F32 [] in
  let g, _ = B.op g (Op.Binary Op.Pow) [ c2; big ] in
  g

let show name (o : Search.outcome) =
  Printf.printf "%-22s %s  (%d iterations, %.1f ms)\n" name
    (match o.binding with
    | Some _ -> "found numerically valid inputs"
    | None -> "FAILED within budget")
    o.iterations o.elapsed_ms

let () =
  let g = m3 () in
  Printf.printf "The M3 pattern:\n%s\n\n" (Graph.to_string g);
  let rng () = Random.State.make [| 123 |] in
  let nan_rate =
    let bad = ref 0 in
    let r = rng () in
    for _ = 1 to 100 do
      if Search.binding_is_bad g (Runner.random_binding r g) then incr bad
    done;
    !bad
  in
  Printf.printf "Random [1,9] initialisation yields Inf in %d%% of runs.\n\n"
    nan_rate;
  (* a 100 ms deadline and no iteration cap, as in Figure 11's timeouts *)
  let search method_ =
    Search.search ~budget_ms:100. ~max_iters:max_int ~method_ (rng ()) g
  in
  show "Sampling" (search Search.Sampling);
  show "Gradient (no proxy)" (search Search.Gradient_no_proxy);
  show "Gradient + proxy" (search Search.Gradient)
