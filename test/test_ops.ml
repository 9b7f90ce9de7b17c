(* Tests for operator specifications, inference, evaluation, validation and
   the vulnerable-operator registry (lib/ops). *)

module Op = Nnsmith_ir.Op
module Conc = Nnsmith_ir.Ttype.Conc
module Sym = Nnsmith_ir.Ttype.Sym
module Graph = Nnsmith_ir.Graph
module Dtype = Nnsmith_tensor.Dtype
module Nd = Nnsmith_tensor.Nd
module Infer = Nnsmith_ops.Infer
module Eval = Nnsmith_ops.Eval
module Spec = Nnsmith_ops.Spec
module Registry = Nnsmith_ops.Registry
module Validate = Nnsmith_ops.Validate
module Runner = Nnsmith_ops.Runner
module Vuln = Nnsmith_ops.Vulnerability
module Solver = Nnsmith_smt.Solver
module Model = Nnsmith_smt.Model

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let f32 dims = Conc.make Dtype.F32 dims
let i64 dims = Conc.make Dtype.I64 dims
let booln dims = Conc.make Dtype.Bool dims
let ok_dims = function Ok t -> Conc.dims t | Error e -> failwith e
let is_err = function Error _ -> true | Ok _ -> false

(* ------------------------------------------------------------------ *)
(* Infer: the compiler-side type checker                               *)

let test_infer_elementwise () =
  check "unary preserves" true
    (ok_dims (Infer.infer (Op.Unary Op.Exp) [ f32 [ 2; 3 ] ]) = [ 2; 3 ]);
  check "unary int rejected" true
    (is_err (Infer.infer (Op.Unary Op.Exp) [ i64 [ 2 ] ]));
  check "abs int ok" true
    (ok_dims (Infer.infer (Op.Unary Op.Abs) [ i64 [ 2 ] ]) = [ 2 ]);
  check "binary broadcast" true
    (ok_dims (Infer.infer (Op.Binary Op.Add) [ f32 [ 2; 1 ]; f32 [ 1; 5 ] ])
    = [ 2; 5 ]);
  check "binary dtype mismatch" true
    (is_err (Infer.infer (Op.Binary Op.Add) [ f32 [ 2 ]; i64 [ 2 ] ]));
  check "binary no broadcast" true
    (is_err (Infer.infer (Op.Binary Op.Add) [ f32 [ 2 ]; f32 [ 3 ] ]));
  check "div int rejected" true
    (is_err (Infer.infer (Op.Binary Op.Div) [ i64 [ 2 ]; i64 [ 2 ] ]))

let test_infer_compare_logical () =
  check "compare yields bool" true
    (match Infer.infer (Op.Compare Op.Less) [ f32 [ 2 ]; f32 [ 2 ] ] with
    | Ok t -> Conc.dtype t = Dtype.Bool
    | Error _ -> false);
  check "compare bool rejected" true
    (is_err (Infer.infer (Op.Compare Op.Equal) [ booln [ 2 ]; booln [ 2 ] ]));
  check "logical needs bool" true
    (is_err (Infer.infer (Op.Logical Op.L_and) [ f32 [ 2 ]; f32 [ 2 ] ]));
  check "not bool" true
    (is_err (Infer.infer Op.Not [ f32 [ 2 ] ]))

let test_infer_matmul () =
  check "2x3 . 3x4" true
    (ok_dims (Infer.infer Op.Mat_mul [ f32 [ 2; 3 ]; f32 [ 3; 4 ] ]) = [ 2; 4 ]);
  check "mismatch" true
    (is_err (Infer.infer Op.Mat_mul [ f32 [ 2; 3 ]; f32 [ 4; 5 ] ]));
  check "vec.mat" true
    (ok_dims (Infer.infer Op.Mat_mul [ f32 [ 3 ]; f32 [ 3; 4 ] ]) = [ 4 ]);
  check "batched" true
    (ok_dims (Infer.infer Op.Mat_mul [ f32 [ 5; 2; 3 ]; f32 [ 3; 4 ] ])
    = [ 5; 2; 4 ]);
  check "scalar rejected" true (is_err (Infer.infer Op.Mat_mul [ f32 []; f32 [] ]))

let conv = Op.Conv2d { out_channels = 4; kh = 3; kw = 3; stride = 1; padding = 1 }

let test_infer_conv_pool () =
  check "conv same" true
    (ok_dims (Infer.infer conv [ f32 [ 1; 2; 8; 8 ]; f32 [ 4; 2; 3; 3 ] ])
    = [ 1; 4; 8; 8 ]);
  check "channel mismatch" true
    (is_err (Infer.infer conv [ f32 [ 1; 3; 8; 8 ]; f32 [ 4; 2; 3; 3 ] ]));
  check "weight attr disagreement" true
    (is_err (Infer.infer conv [ f32 [ 1; 2; 8; 8 ]; f32 [ 4; 2; 5; 5 ] ]));
  check "kernel too large" true
    (is_err
       (Infer.infer
          (Op.Conv2d { out_channels = 1; kh = 9; kw = 9; stride = 1; padding = 0 })
          [ f32 [ 1; 1; 4; 4 ]; f32 [ 1; 1; 9; 9 ] ]));
  let pool = Op.Pool2d (Op.P_max, { p_kh = 2; p_kw = 2; p_stride = 2; p_padding = 0 }) in
  check "pool" true
    (ok_dims (Infer.infer pool [ f32 [ 1; 3; 8; 8 ] ]) = [ 1; 3; 4; 4 ]);
  check "pool pad > half kernel" true
    (is_err
       (Infer.infer
          (Op.Pool2d (Op.P_avg, { p_kh = 2; p_kw = 2; p_stride = 1; p_padding = 2 }))
          [ f32 [ 1; 1; 8; 8 ] ]))

let test_infer_shape_ops () =
  check "reshape" true
    (ok_dims (Infer.infer (Op.Reshape [ 3; 2 ]) [ f32 [ 2; 3 ] ]) = [ 3; 2 ]);
  check "reshape bad numel" true
    (is_err (Infer.infer (Op.Reshape [ 4; 2 ]) [ f32 [ 2; 3 ] ]));
  check "flatten" true
    (ok_dims (Infer.infer (Op.Flatten { f_axis = 1 }) [ f32 [ 2; 3; 4 ] ])
    = [ 2; 12 ]);
  check "transpose" true
    (ok_dims (Infer.infer (Op.Transpose [| 2; 0; 1 |]) [ f32 [ 2; 3; 4 ] ])
    = [ 4; 2; 3 ]);
  check "bad perm" true
    (is_err (Infer.infer (Op.Transpose [| 0; 0; 1 |]) [ f32 [ 2; 3; 4 ] ]));
  check "squeeze" true
    (ok_dims (Infer.infer (Op.Squeeze { sq_axis = 1 }) [ f32 [ 2; 1; 3 ] ])
    = [ 2; 3 ]);
  check "squeeze non-1" true
    (is_err (Infer.infer (Op.Squeeze { sq_axis = 0 }) [ f32 [ 2; 1 ] ]));
  check "unsqueeze" true
    (ok_dims (Infer.infer (Op.Unsqueeze { usq_axis = 2 }) [ f32 [ 2; 3 ] ])
    = [ 2; 3; 1 ]);
  check "slice" true
    (ok_dims
       (Infer.infer (Op.Slice { s_axis = 1; s_start = 1; s_stop = 3 })
          [ f32 [ 2; 5 ] ])
    = [ 2; 2 ]);
  check "slice out of range" true
    (is_err
       (Infer.infer (Op.Slice { s_axis = 1; s_start = 1; s_stop = 9 })
          [ f32 [ 2; 5 ] ]));
  check "expand" true
    (ok_dims (Infer.infer (Op.Expand [ 4; 3 ]) [ f32 [ 1; 3 ] ]) = [ 4; 3 ]);
  check "expand invalid" true
    (is_err (Infer.infer (Op.Expand [ 4; 2 ]) [ f32 [ 1; 3 ] ]))

let test_infer_pad_concat_where () =
  let pad b a =
    Op.Pad (Op.Pad_constant 0., { pad_before = b; pad_after = a })
  in
  check "pad grows" true
    (ok_dims (Infer.infer (pad [ 1; 0 ] [ 0; 2 ]) [ f32 [ 2; 3 ] ]) = [ 3; 5 ]);
  check "pad empty result" true
    (is_err (Infer.infer (pad [ -2; 0 ] [ 0; 0 ]) [ f32 [ 2; 3 ] ]));
  check "reflect negative rejected" true
    (is_err
       (Infer.infer
          (Op.Pad (Op.Pad_reflect, { pad_before = [ -1 ]; pad_after = [ 0 ] }))
          [ f32 [ 4 ] ]));
  check "concat" true
    (ok_dims
       (Infer.infer (Op.Concat { cat_axis = 0; cat_n = 2 })
          [ f32 [ 2; 3 ]; f32 [ 4; 3 ] ])
    = [ 6; 3 ]);
  check "concat non-axis mismatch" true
    (is_err
       (Infer.infer (Op.Concat { cat_axis = 0; cat_n = 2 })
          [ f32 [ 2; 3 ]; f32 [ 4; 5 ] ]));
  check "where" true
    (ok_dims (Infer.infer Op.Where [ booln [ 1; 1 ]; f32 [ 3; 1 ]; f32 [ 2 ] ])
    = [ 3; 2 ]);
  check "where cond not bool" true
    (is_err (Infer.infer Op.Where [ f32 [ 1 ]; f32 [ 1 ]; f32 [ 1 ] ]))

let test_infer_reduce_arg () =
  check "reduce drop" true
    (ok_dims
       (Infer.infer (Op.Reduce (Op.R_sum, { r_axes = [ 1 ]; r_keepdims = false }))
          [ f32 [ 2; 3; 4 ] ])
    = [ 2; 4 ]);
  check "reduce keep" true
    (ok_dims
       (Infer.infer (Op.Reduce (Op.R_max, { r_axes = [ 0; 2 ]; r_keepdims = true }))
          [ f32 [ 2; 3; 4 ] ])
    = [ 1; 3; 1 ]);
  check "mean int rejected" true
    (is_err
       (Infer.infer (Op.Reduce (Op.R_mean, { r_axes = [ 0 ]; r_keepdims = false }))
          [ i64 [ 2 ] ]));
  check "argmax i64" true
    (match Infer.infer (Op.Arg_max { am_axis = 1 }) [ f32 [ 2; 5 ] ] with
    | Ok t -> Conc.dtype t = Dtype.I64 && Conc.dims t = [ 2 ]
    | Error _ -> false)

let test_infer_gather_tile () =
  check "gather" true
    (ok_dims
       (Infer.infer (Op.Gather { g_axis = 1 }) [ f32 [ 2; 5; 3 ]; i64 [ 4 ] ])
    = [ 2; 4; 3 ]);
  check "gather scalar indices" true
    (ok_dims (Infer.infer (Op.Gather { g_axis = 0 }) [ f32 [ 5 ]; i64 [] ]) = []);
  check "gather float indices rejected" true
    (is_err (Infer.infer (Op.Gather { g_axis = 0 }) [ f32 [ 5 ]; f32 [ 2 ] ]));
  check "gather bad axis" true
    (is_err (Infer.infer (Op.Gather { g_axis = 3 }) [ f32 [ 5 ]; i64 [ 2 ] ]));
  check "tile" true
    (ok_dims (Infer.infer (Op.Tile [ 2; 3 ]) [ f32 [ 4; 5 ] ]) = [ 8; 15 ]);
  check "tile rank mismatch" true
    (is_err (Infer.infer (Op.Tile [ 2 ]) [ f32 [ 4; 5 ] ]));
  check "tile zero repeat" true
    (is_err (Infer.infer (Op.Tile [ 0; 1 ]) [ f32 [ 4; 5 ] ]))

let test_eval_gather_tile () =
  let data = Nd.of_floats Dtype.F64 [| 4 |] [| 10.; 20.; 30.; 40. |] in
  let idx = Nd.of_ints Dtype.I64 [| 3 |] [| 2; 0; 9 |] in
  let out = Eval.eval (Op.Gather { g_axis = 0 }) [ data; idx ] in
  Alcotest.(check (array (float 1e-9)))
    "gather with clamp" [| 30.; 10.; 40. |]
    (Array.init 3 (Nd.to_float out));
  let t = Nd.of_floats Dtype.F64 [| 2 |] [| 1.; 2. |] in
  let tiled = Eval.eval (Op.Tile [ 3 ]) [ t ] in
  Alcotest.(check (array (float 1e-9)))
    "tile" [| 1.; 2.; 1.; 2.; 1.; 2. |]
    (Array.init 6 (Nd.to_float tiled))

(* ------------------------------------------------------------------ *)
(* Template integration: every registered spec generates solvable       *)
(* instances whose concretisation passes the type checker.              *)

let synthetic_inputs rng (tpl : Spec.template) =
  (* try a few dtype/rank signatures until [accepts] is happy *)
  let dtypes = [ Dtype.F32; Dtype.F64; Dtype.I64; Dtype.Bool ] in
  let candidates =
    List.concat_map
      (fun dt -> List.init 5 (fun r -> List.init tpl.t_arity (fun _ -> (dt, r))))
      dtypes
    @ [ List.init tpl.t_arity (fun i -> (List.nth dtypes (i mod 2), 4)) ]
    @ (if tpl.t_arity = 3 then
         [ [ (Dtype.Bool, 2); (Dtype.F32, 2); (Dtype.F32, 2) ] ]
       else [])
  in
  match List.find_opt tpl.accepts candidates with
  | None -> None
  | Some signature ->
      ignore rng;
      Some (List.map (fun (dt, r) -> Sym.fresh dt r) signature)

let test_registry_complete () =
  check "at least 60 templates" true (List.length Registry.all >= 60);
  check "find" true (Registry.find "Conv2d" <> None);
  check "find missing" true (Registry.find "NoSuchOp" = None);
  check_int "filter" 1
    (List.length (Registry.filter (fun n -> n = "MatMul")))

let test_templates_forward_solvable () =
  let rng = Random.State.make [| 7 |] in
  let tried = ref 0 and solved = ref 0 in
  List.iter
    (fun (tpl : Spec.template) ->
      match synthetic_inputs rng tpl with
      | None -> ()
      | Some inputs -> (
          match tpl.forward rng inputs with
          | None -> ()
          | Some inst ->
              incr tried;
              let constraints =
                inst.requires
                @ Spec.out_positive inst.out_type
                @ List.concat_map
                    (fun (t : Sym.t) -> Spec.out_positive t)
                    (inputs @ inst.extra_inputs)
              in
              (match Solver.solve constraints with
              | Some model ->
                  incr solved;
                  (* concretise and type check against Infer *)
                  let conc (t : Sym.t) =
                    let dtype, dims = Sym.concretize model t in
                    Conc.make dtype dims
                  in
                  let op = Op.map_attrs (Model.eval_expr model) inst.op in
                  let in_types = List.map conc (inputs @ inst.extra_inputs) in
                  (match Infer.infer op in_types with
                  | Ok out ->
                      check
                        (Printf.sprintf "%s out type matches" tpl.t_name)
                        true
                        (Conc.equal out (conc inst.out_type))
                  | Error e ->
                      Alcotest.failf "%s: inferred invalid: %s" tpl.t_name e)
              | None ->
                  Alcotest.failf "%s: forward instance unsatisfiable"
                    tpl.t_name)))
    Registry.all;
  check "tried most templates" true (!tried >= 50);
  check_int "all solvable" !tried !solved

let test_templates_backward_consistent () =
  let rng = Random.State.make [| 11 |] in
  let count = ref 0 in
  List.iter
    (fun (tpl : Spec.template) ->
      match tpl.backward with
      | None -> ()
      | Some backward ->
          (* drive with a few plausible output types *)
          List.iter
            (fun v ->
              match backward rng v with
              | None -> ()
              | Some (inst, in_types) -> (
                  incr count;
                  let constraints =
                    inst.requires
                    @ Spec.out_positive inst.out_type
                    @ List.concat_map Spec.out_positive in_types
                    @ Spec.out_positive v
                  in
                  match Solver.solve constraints with
                  | Some model ->
                      let conc (t : Sym.t) =
                        let dtype, dims = Sym.concretize model t in
                        Conc.make dtype dims
                      in
                      let op = Op.map_attrs (Model.eval_expr model) inst.op in
                      (match Infer.infer op (List.map conc in_types) with
                      | Ok out ->
                          check
                            (Printf.sprintf "%s backward out = target" tpl.t_name)
                            true
                            (Conc.equal out (conc v))
                      | Error e ->
                          Alcotest.failf "%s backward invalid: %s" tpl.t_name e)
                  | None ->
                      Alcotest.failf "%s: backward instance unsatisfiable"
                        tpl.t_name))
            [
              Sym.fresh Dtype.F32 2;
              Sym.fresh Dtype.F32 4;
              Sym.fresh Dtype.Bool 2;
              Sym.fresh Dtype.I64 1;
            ])
    Registry.all;
  check "exercised backward templates" true (!count >= 30)

(* ------------------------------------------------------------------ *)
(* Eval / Runner / Validate                                            *)

let build_chain () =
  (* x -> Relu -> Add(x) *)
  let module B = Nnsmith_baselines.Builder in
  let g = Graph.empty in
  let g, x = B.input g Dtype.F32 [ 2; 2 ] in
  let g, r = B.op g (Op.Unary Op.Relu) [ x ] in
  let g, a = B.op g (Op.Binary Op.Add) [ r; x ] in
  (g, x, a)

let test_runner_and_validate () =
  let g, x, a = build_chain () in
  check "valid" true (Validate.is_valid g);
  let input = Nd.of_floats Dtype.F32 [| 2; 2 |] [| -1.; 2.; -3.; 4. |] in
  let outs = Runner.run g [ (x, input) ] in
  let result = List.assoc a outs in
  Alcotest.(check (array (float 1e-6)))
    "relu(x)+x" [| -1.; 4.; -3.; 8. |]
    (Array.init 4 (Nd.to_float result))

let test_validate_rejects_corruption () =
  let g, _, a = build_chain () in
  let bad =
    Graph.map_nodes
      (fun n ->
        if n.Graph.id = a then
          { n with out_type = Conc.make Dtype.F32 [ 3; 3 ] }
        else n)
      g
  in
  check "corrupted invalid" false (Validate.is_valid bad)

let test_runner_first_bad () =
  let module B = Nnsmith_baselines.Builder in
  let g = Graph.empty in
  let g, x = B.input g Dtype.F32 [ 2 ] in
  let g, s = B.op g (Op.Unary Op.Sqrt) [ x ] in
  let g, _ = B.op g (Op.Unary Op.Exp) [ s ] in
  let neg = Nd.of_floats Dtype.F32 [| 2 |] [| -1.; 4. |] in
  (match Runner.first_bad g [ (x, neg) ] with
  | Some (node, _) -> check_int "sqrt is first bad" s node.Graph.id
  | None -> Alcotest.fail "expected NaN");
  let pos = Nd.of_floats Dtype.F32 [| 2 |] [| 1.; 4. |] in
  check "clean run" true (Runner.first_bad g [ (x, pos) ] = None)

let test_eval_errors () =
  Alcotest.check_raises "leaf" (Eval.Eval_error "Leaf Input has no evaluation rule")
    (fun () -> ignore (Eval.eval (Op.Leaf Op.Model_input) []));
  check "arity error" true
    (try
       ignore (Eval.eval (Op.Binary Op.Add) [ Nd.scalar_f Dtype.F32 1. ]);
       false
     with Eval.Eval_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Vulnerability registry                                              *)

let scalar v = Nd.scalar_f Dtype.F64 v

let test_vulnerability_registry () =
  check "sqrt vulnerable" true (Vuln.is_vulnerable (Op.Unary Op.Sqrt));
  check "relu not" false (Vuln.is_vulnerable (Op.Unary Op.Relu));
  check "pow vulnerable" true (Vuln.is_vulnerable (Op.Binary Op.Pow));
  check_int "table rows" 10 (List.length (Vuln.table_rows ()))

let loss_of op = (Option.get (Vuln.of_op op)).Vuln.losses

let test_losses_sign () =
  (* positive iff the domain predicate is violated *)
  let sqrt_l = List.hd (loss_of (Op.Unary Op.Sqrt)) in
  check "sqrt violated" true (sqrt_l.value [ scalar (-3.) ] > 0.);
  check "sqrt fine" true (sqrt_l.value [ scalar 3. ] = 0.);
  let div_l = List.hd (loss_of (Op.Binary Op.Div)) in
  check "div by ~0" true (div_l.value [ scalar 1.; scalar 0. ] > 0.);
  check "div fine" true (div_l.value [ scalar 1.; scalar 2. ] = 0.);
  let asin_l = List.hd (loss_of (Op.Unary Op.Asin)) in
  check "asin out of domain" true (asin_l.value [ scalar 2. ] > 0.);
  check "asin in domain" true (asin_l.value [ scalar 0.5 ] = 0.)

let test_losses_gradient_direction () =
  (* following -grad must reduce the loss *)
  let sqrt_l = List.hd (loss_of (Op.Unary Op.Sqrt)) in
  (match sqrt_l.grad [ scalar (-3.) ] with
  | [ Some g ] ->
      let gv = Nd.to_float g 0 in
      let stepped = scalar (-3. -. (0.5 *. gv)) in
      check "loss decreases" true
        (sqrt_l.value [ stepped ] < sqrt_l.value [ scalar (-3.) ])
  | _ -> Alcotest.fail "expected gradient");
  (* pow cap loss: gradients flow to both operands *)
  let pow_cap = List.nth (loss_of (Op.Binary Op.Pow)) 1 in
  match pow_cap.grad [ scalar 100.; scalar 100. ] with
  | [ Some gx; Some gy ] ->
      check "gx positive" true (Nd.to_float gx 0 > 0.);
      check "gy positive" true (Nd.to_float gy 0 > 0.)
  | _ -> Alcotest.fail "expected both gradients"

let test_pow_loss_no_exceptional () =
  (* the loss itself must not produce NaN/Inf (footnote 3) *)
  let pow_losses = loss_of (Op.Binary Op.Pow) in
  List.iter
    (fun (l : Vuln.loss) ->
      let v = l.value [ scalar 1e300; scalar 1e300 ] in
      check "finite" true (Float.is_finite v || v = 0.))
    pow_losses

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "ops"
    [
      ( "infer",
        [
          tc "elementwise" `Quick test_infer_elementwise;
          tc "compare/logical" `Quick test_infer_compare_logical;
          tc "matmul" `Quick test_infer_matmul;
          tc "conv/pool" `Quick test_infer_conv_pool;
          tc "shape ops" `Quick test_infer_shape_ops;
          tc "pad/concat/where" `Quick test_infer_pad_concat_where;
          tc "reduce/arg" `Quick test_infer_reduce_arg;
          tc "gather/tile" `Quick test_infer_gather_tile;
        ] );
      ( "templates",
        [
          tc "registry" `Quick test_registry_complete;
          tc "forward instances solvable+typed" `Quick
            test_templates_forward_solvable;
          tc "backward instances consistent" `Quick
            test_templates_backward_consistent;
        ] );
      ( "runner",
        [
          tc "gather/tile eval" `Quick test_eval_gather_tile;
          tc "run + validate" `Quick test_runner_and_validate;
          tc "validate rejects corruption" `Quick test_validate_rejects_corruption;
          tc "first_bad localisation" `Quick test_runner_first_bad;
          tc "eval errors" `Quick test_eval_errors;
        ] );
      ( "vulnerability",
        [
          tc "registry" `Quick test_vulnerability_registry;
          tc "loss signs" `Quick test_losses_sign;
          tc "gradient direction" `Quick test_losses_gradient_direction;
          tc "losses stay finite" `Quick test_pow_loss_no_exceptional;
        ] );
    ]
