(* Tests for the two compilers under test: OxRT (lib/ortlike) and Lotus
   (lib/tvmlike), including their seeded defects. *)

module Op = Nnsmith_ir.Op
module Graph = Nnsmith_ir.Graph
module Conc = Nnsmith_ir.Ttype.Conc
module Dtype = Nnsmith_tensor.Dtype
module Nd = Nnsmith_tensor.Nd
module Runner = Nnsmith_ops.Runner
module Faults = Nnsmith_faults.Faults
module Ox = Nnsmith_ortlike.Compiler
module Oxir = Nnsmith_ortlike.Ir
module Lotus = Nnsmith_tvmlike.Compiler
module Rir = Nnsmith_tvmlike.Rir
module Tir = Nnsmith_tvmlike.Tir
module Lower = Nnsmith_tvmlike.Lower
module Tzer = Nnsmith_baselines.Tzer
module Cov = Nnsmith_coverage.Coverage
module B = Nnsmith_baselines.Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let no_faults f = Faults.with_bugs [] f
let with_bug b f = Faults.with_bugs [ b ] f

let t32 dims xs = Nd.of_floats Dtype.F32 (Array.of_list dims) (Array.of_list xs)

let run_oxrt ?profile ?opt_level g binding =
  Ox.run (Ox.compile ?profile ?opt_level g) binding

let run_lotus ?opt_level g binding =
  Lotus.run (Lotus.compile ?opt_level g) binding

(* reference semantics for comparison *)
let reference g binding =
  let all = Runner.run g binding in
  List.map
    (fun (n : Graph.node) -> (n.Graph.id, List.assoc n.Graph.id all))
    (Graph.outputs g)

let agree a b =
  List.for_all2 (fun (_, x) (_, y) -> Nd.approx_equal ~rtol:1e-3 x y) a b

let crashes_with bug_id f =
  match f () with
  | _ -> false
  | exception Faults.Compiler_bug m ->
      Nnsmith_difftest.Harness.bug_id_of_message m = Some bug_id

(* ------------------------------------------------------------------ *)
(* Shared test graphs                                                  *)

(* Mul(2, A) @ Mul(3, B) with B of the given shape *)
let matmul_scale_graph b_dims =
  let g = Graph.empty in
  let g, a = B.input g Dtype.F32 [ 2; 2 ] in
  let g, b = B.input g Dtype.F32 b_dims in
  let g, s1 = B.leaf g (Op.Const_fill 2.) Dtype.F32 [] in
  let g, s2 = B.leaf g (Op.Const_fill 3.) Dtype.F32 [] in
  let g, ma = B.op g (Op.Binary Op.Mul) [ s1; a ] in
  let g, mb = B.op g (Op.Binary Op.Mul) [ s2; b ] in
  let g, _ = B.op g Op.Mat_mul [ ma; mb ] in
  g

let binding_for rng g = Runner.random_binding rng g

let rng () = Random.State.make [| 2024 |]

(* ------------------------------------------------------------------ *)
(* OxRT pass behaviour                                                 *)

let test_oxrt_o0_equals_reference () =
  no_faults (fun () ->
      for seed = 1 to 25 do
        match
          Nnsmith_core.Gen.generate
            { Nnsmith_core.Config.default with seed = seed * 41; max_nodes = 8 }
        with
        | exception Nnsmith_core.Gen.Gen_failure _ -> ()
        | g ->
            let b = binding_for (rng ()) g in
            let r = Runner.run g b in
            if not (List.exists (fun (_, v) -> Nd.has_bad v) r) then begin
              let reference = reference g b in
              check "O0" true (agree reference (run_oxrt ~opt_level:Ox.O0 g b));
              check "O2" true (agree reference (run_oxrt ~opt_level:Ox.O2 g b))
            end
      done)

let test_oxrt_constant_folding () =
  no_faults (fun () ->
      let g = Graph.empty in
      let g, c = B.leaf g (Op.Const_fill 2.) Dtype.F32 [ 2 ] in
      let g, e = B.op g (Op.Unary Op.Exp) [ c ] in
      let g, x = B.input g Dtype.F32 [ 2 ] in
      let g, _ = B.op g (Op.Binary Op.Add) [ e; x ] in
      let compiled = Ox.compile g in
      (* exp(const) must have been folded into a Const node *)
      let folded =
        List.exists
          (fun (n : Oxir.node) ->
            match n.op with Oxir.Const _ -> n.id = e | _ -> false)
          compiled.gir.nodes
      in
      check "folded" true folded)

let test_oxrt_identity_elim () =
  no_faults (fun () ->
      let g = Graph.empty in
      let g, x = B.input g Dtype.F32 [ 2; 2 ] in
      let g, z = B.leaf g (Op.Const_fill 0.) Dtype.F32 [ 2; 2 ] in
      let g, _ = B.op g (Op.Binary Op.Add) [ x; z ] in
      let compiled = Ox.compile g in
      (* the Add is gone: output aliases the input *)
      check_int "only the input node survives" 1 (List.length compiled.gir.nodes))

let test_oxrt_add_zero_broadcast_guard () =
  (* zero operand expands the shape: elimination must NOT happen *)
  let g = Graph.empty in
  let g, x = B.input g Dtype.F32 [ 1; 3 ] in
  let g, z = B.leaf g (Op.Const_fill 0.) Dtype.F32 [ 4; 3 ] in
  let g, _ = B.op g (Op.Binary Op.Add) [ x; z ] in
  no_faults (fun () ->
      let b = [ (0, t32 [ 1; 3 ] [ 1.; 2.; 3. ]) ] in
      check "correct without bug" true (agree (reference g b) (run_oxrt g b)));
  with_bug "oxrt.identity_add_zero_broadcast" (fun () ->
      check "crash with bug" true
        (crashes_with "oxrt.identity_add_zero_broadcast" (fun () -> Ox.compile g)))

let test_oxrt_fuse_relu_clip () =
  let mk dtype =
    let g = Graph.empty in
    let g, x = B.input g dtype [ 4 ] in
    let g, r = B.op g (Op.Unary Op.Relu) [ x ] in
    let g, _ = B.op g (Op.Clip { c_lo = -1.; c_hi = 1. }) [ r ] in
    g
  in
  let neg dtype = [ (0, Nd.full_f dtype [| 4 |] (-2.)) ] in
  no_faults (fun () ->
      let g = mk Dtype.F64 in
      check "fused correctly" true
        (agree (reference g (neg Dtype.F64)) (run_oxrt g (neg Dtype.F64))));
  with_bug "oxrt.fuse_relu_clip_f64" (fun () ->
      let g64 = mk Dtype.F64 in
      check "f64 fusion wrong" false
        (agree (reference g64 (neg Dtype.F64)) (run_oxrt g64 (neg Dtype.F64)));
      (* f32 is unaffected by this defect *)
      let g32 = mk Dtype.F32 in
      check "f32 unaffected" true
        (agree (reference g32 (neg Dtype.F32)) (run_oxrt g32 (neg Dtype.F32))))

let test_oxrt_fuse_matmul_scale () =
  no_faults (fun () ->
      let g = matmul_scale_graph [ 2; 2 ] in
      let b = binding_for (rng ()) g in
      check "fusion preserves semantics" true (agree (reference g b) (run_oxrt g b)));
  with_bug "oxrt.fuse_matmul_scale_1x1" (fun () ->
      (* the paper's FuseMatMulScale defect: 1x1 operand mistaken for scalar *)
      let one_by_one =
        let g = Graph.empty in
        let g, a = B.input g Dtype.F32 [ 2; 1 ] in
        let g, b = B.input g Dtype.F32 [ 1; 1 ] in
        let g, s = B.leaf g (Op.Const_fill 2.) Dtype.F32 [] in
        let g, mb = B.op g (Op.Binary Op.Mul) [ s; b ] in
        let g, _ = B.op g Op.Mat_mul [ a; mb ] in
        g
      in
      check "1x1 crashes" true
        (crashes_with "oxrt.fuse_matmul_scale_1x1" (fun () ->
             Ox.compile one_by_one));
      (* non-1x1 still fuses fine *)
      let g = matmul_scale_graph [ 2; 2 ] in
      let b = binding_for (rng ()) g in
      check "2x2 fine" true (agree (reference g b) (run_oxrt g b)))

let test_oxrt_fuse_gemm () =
  let mk bias_dims =
    let g = Graph.empty in
    let g, a = B.input g Dtype.F32 [ 2; 3 ] in
    let g, w = B.weight g Dtype.F32 [ 3; 4 ] in
    let g, m = B.op g Op.Mat_mul [ a; w ] in
    let g, bias = B.weight g Dtype.F32 bias_dims in
    let g, _ = B.op g (Op.Binary Op.Add) [ m; bias ] in
    g
  in
  no_faults (fun () ->
      let g = mk [ 4 ] in
      let b = binding_for (rng ()) g in
      check "gemm fusion correct" true (agree (reference g b) (run_oxrt g b)));
  with_bug "oxrt.gemm_fuse_scalar_bias" (fun () ->
      check "rank-0 bias crashes" true
        (crashes_with "oxrt.gemm_fuse_scalar_bias" (fun () -> Ox.compile (mk []))))

let test_oxrt_fuse_bias_softmax () =
  let mk bias_dims =
    let g = Graph.empty in
    let g, x = B.input g Dtype.F32 [ 2; 4 ] in
    let g, bias = B.weight g Dtype.F32 bias_dims in
    let g, a = B.op g (Op.Binary Op.Add) [ x; bias ] in
    let g, _ = B.op g (Op.Softmax { sm_axis = 1 }) [ a ] in
    g
  in
  no_faults (fun () ->
      let g = mk [ 4 ] in
      let b = binding_for (rng ()) g in
      check "correct" true (agree (reference g b) (run_oxrt g b)));
  with_bug "oxrt.fuse_bias_softmax_axis" (fun () ->
      let g = mk [ 4 ] in
      let b = binding_for (rng ()) g in
      check "lower-rank bias wrong" false (agree (reference g b) (run_oxrt g b)))

let test_oxrt_fuse_pad_conv () =
  let mk amount =
    let g = Graph.empty in
    let g, x = B.input g Dtype.F32 [ 1; 1; 6; 6 ] in
    let g, p =
      B.op g
        (Op.Pad
           ( Op.Pad_constant 0.,
             { pad_before = [ 0; 0; amount; amount ];
               pad_after = [ 0; 0; amount; amount ] } ))
        [ x ]
    in
    let g, w = B.weight g Dtype.F32 [ 1; 1; 3; 3 ] in
    let g, _ =
      B.op g
        (Op.Conv2d { out_channels = 1; kh = 3; kw = 3; stride = 1; padding = 0 })
        [ p; w ]
    in
    g
  in
  no_faults (fun () ->
      let g = mk 1 in
      let b = binding_for (rng ()) g in
      check "pad folded correctly" true (agree (reference g b) (run_oxrt g b)));
  with_bug "oxrt.fuse_pad_conv_negative" (fun () ->
      check "negative pad crashes" true
        (crashes_with "oxrt.fuse_pad_conv_negative" (fun () -> Ox.compile (mk (-1)))))

let test_oxrt_cse () =
  let slice_pair start2 =
    let g = Graph.empty in
    let g, x = B.input g Dtype.F32 [ 6 ] in
    let g, s1 = B.op g (Op.Slice { s_axis = 0; s_start = 0; s_stop = 3 }) [ x ] in
    let g, s2 = B.op g (Op.Slice { s_axis = 0; s_start = start2; s_stop = start2 + 3 }) [ x ] in
    let g, _ = B.op g (Op.Binary Op.Sub) [ s1; s2 ] in
    g
  in
  no_faults (fun () ->
      (* identical slices merge... *)
      let compiled = Ox.compile (slice_pair 0) in
      check "identical merged" true (List.length compiled.Ox.gir.nodes <= 3);
      (* ...but distinct slices must not *)
      let g = slice_pair 2 in
      let b = [ (0, t32 [ 6 ] [ 1.; 2.; 3.; 4.; 5.; 6. ]) ] in
      check "distinct kept" true (agree (reference g b) (run_oxrt g b)));
  with_bug "oxrt.cse_ignores_attrs" (fun () ->
      let g = slice_pair 2 in
      let b = [ (0, t32 [ 6 ] [ 1.; 2.; 3.; 4.; 5.; 6. ]) ] in
      check "wrong merge changes results" false
        (agree (reference g b) (run_oxrt g b)))

let test_oxrt_where_fold () =
  let mk () =
    let g = Graph.empty in
    let g, c = B.leaf g (Op.Const_fill 1.) Dtype.Bool [ 1 ] in
    let g, t = B.input g Dtype.F32 [ 1; 3 ] in
    let g, f = B.input g Dtype.F32 [ 4; 3 ] in
    let g, _ = B.op g Op.Where [ c; t; f ] in
    g
  in
  no_faults (fun () ->
      let g = mk () in
      let b = binding_for (rng ()) g in
      check "folds via expand" true (agree (reference g b) (run_oxrt g b)));
  with_bug "oxrt.where_const_cond_fold" (fun () ->
      check "broadcast-dropping fold crashes" true
        (crashes_with "oxrt.where_const_cond_fold" (fun () -> Ox.compile (mk ()))))

let test_oxrt_cast_elim () =
  let mk d1 =
    let g = Graph.empty in
    let g, x = B.input g Dtype.F32 [ 3 ] in
    let g, c1 = B.op g (Op.Cast d1) [ x ] in
    let g, _ = B.op g (Op.Cast Dtype.F32) [ c1 ] in
    g
  in
  let b = [ (0, t32 [ 3 ] [ 1.9; -2.7; 3.2 ]) ] in
  no_faults (fun () ->
      (* f32 -> f64 -> f32 is lossless and removable; f32 -> i32 -> f32 is not *)
      check "lossless" true (agree (reference (mk Dtype.F64) b) (run_oxrt (mk Dtype.F64) b));
      check "trunc preserved" true
        (agree (reference (mk Dtype.I32) b) (run_oxrt (mk Dtype.I32) b)));
  with_bug "oxrt.cast_chain_wrap" (fun () ->
      check "trunc dropped = semantic bug" false
        (agree (reference (mk Dtype.I32) b) (run_oxrt (mk Dtype.I32) b)))

let test_oxrt_avgpool_include_pad () =
  let g = Graph.empty in
  let g, x = B.input g Dtype.F32 [ 1; 1; 2; 2 ] in
  let g, _ =
    B.op g
      (Op.Pool2d (Op.P_avg, { p_kh = 2; p_kw = 2; p_stride = 2; p_padding = 1 }))
      [ x ]
  in
  let b = [ (0, t32 [ 1; 1; 2; 2 ] [ 4.; 4.; 4.; 4. ]) ] in
  no_faults (fun () ->
      check "exclude-pad matches" true (agree (reference g b) (run_oxrt g b)));
  with_bug "oxrt.avgpool_include_pad" (fun () ->
      check "include-pad differs" false (agree (reference g b) (run_oxrt g b)))

let test_oxrt_rejects_invalid () =
  let bad =
    Graph.map_nodes
      (fun n ->
        if n.Graph.id = 1 then { n with out_type = Conc.make Dtype.F32 [ 9 ] }
        else n)
      (let g = Graph.empty in
       let g, x = B.input g Dtype.F32 [ 2 ] in
       let g, _ = B.op g (Op.Unary Op.Exp) [ x ] in
       g)
  in
  no_faults (fun () ->
      check "front end rejects" true
        (try
           ignore (Ox.compile bad);
           false
         with Faults.Compiler_bug _ -> true))

(* ------------------------------------------------------------------ *)
(* TRT-strict profile                                                  *)

let test_trt_reduce_keepdims () =
  let g = Graph.empty in
  let g, x = B.input g Dtype.F32 [ 2; 3; 4 ] in
  let g, _ =
    B.op g (Op.Reduce (Op.R_sum, { r_axes = [ 0; 2 ]; r_keepdims = true })) [ x ]
  in
  with_bug "trt.reduce_keepdims_multi" (fun () ->
      check "builder crash" true
        (crashes_with "trt.reduce_keepdims_multi" (fun () ->
             Ox.compile ~profile:Ox.Trt_strict g)));
  no_faults (fun () ->
      let b = binding_for (rng ()) g in
      check "fine without bug" true
        (agree (reference g b)
           (Ox.run (Ox.compile ~profile:Ox.Trt_strict g) b)))

let test_trt_sigmoid_precision () =
  let g = Graph.empty in
  let g, x = B.input g Dtype.F64 [ 4 ] in
  let g, _ = B.op g (Op.Unary Op.Sigmoid) [ x ] in
  let b = [ (0, Nd.of_floats Dtype.F64 [| 4 |] [| -8.; -1.; 1.; 8. |]) ] in
  with_bug "trt.sigmoid_f64_precision" (fun () ->
      check "hard-sigmoid approximation differs" false
        (agree (reference g b) (run_oxrt ~profile:Ox.Trt_strict g b)))

(* ------------------------------------------------------------------ *)
(* Lotus: graph level                                                  *)

let test_lotus_o0_o2_equal_reference () =
  no_faults (fun () ->
      for seed = 1 to 25 do
        match
          Nnsmith_core.Gen.generate
            { Nnsmith_core.Config.default with seed = seed * 43; max_nodes = 8 }
        with
        | exception Nnsmith_core.Gen.Gen_failure _ -> ()
        | g ->
            let b = binding_for (rng ()) g in
            let r = Runner.run g b in
            if not (List.exists (fun (_, v) -> Nd.has_bad v) r) then begin
              let reference = reference g b in
              check "O0" true (agree reference (run_lotus ~opt_level:Lotus.O0 g b));
              check "O2" true (agree reference (run_lotus ~opt_level:Lotus.O2 g b))
            end
      done)

let transpose_pair_graph () =
  let g = Graph.empty in
  let g, x = B.input g Dtype.F32 [ 2; 3; 4 ] in
  let g, t1 = B.op g (Op.Transpose [| 1; 2; 0 |]) [ x ] in
  let g, _ = B.op g (Op.Transpose [| 2; 1; 0 |]) [ t1 ] in
  g

let test_lotus_fold_transpose_pair () =
  let g = transpose_pair_graph () in
  let b = binding_for (rng ()) g in
  no_faults (fun () ->
      check "fold correct" true (agree (reference g b) (run_lotus g b)));
  with_bug "lotus.fold_transpose_pair" (fun () ->
      check "wrong composition order" false
        (try agree (reference g b) (run_lotus g b)
         with _ -> false))

let conv_graph ~channels consumer =
  let g = Graph.empty in
  let g, x = B.input g Dtype.F32 [ 1; channels; 6; 6 ] in
  let g, w = B.weight g Dtype.F32 [ channels; channels; 3; 3 ] in
  let g, c =
    B.op g
      (Op.Conv2d
         { out_channels = channels; kh = 3; kw = 3; stride = 1; padding = 1 })
      [ x; w ]
  in
  consumer g c

let test_lotus_layout_bugs () =
  let broadcast_consumer g c =
    let g, k = B.leaf g (Op.Const_fill 1.) Dtype.F32 [ 6; 6 ] in
    let g, _ = B.op g (Op.Binary Op.Add) [ c; k ] in
    g
  in
  no_faults (fun () ->
      let g = conv_graph ~channels:4 broadcast_consumer in
      let b = binding_for (rng ()) g in
      check "layout packing transparent" true (agree (reference g b) (run_lotus g b)));
  with_bug "lotus.layout_nchw4c_broadcast" (fun () ->
      check "broadcast consumer crash" true
        (crashes_with "lotus.layout_nchw4c_broadcast" (fun () ->
             Lotus.compile (conv_graph ~channels:4 broadcast_consumer)));
      (* channels not divisible by 4: no packing, no crash *)
      let g3 = conv_graph ~channels:3 broadcast_consumer in
      check "c=3 unaffected" true
        (try
           ignore (Lotus.compile g3);
           true
         with Faults.Compiler_bug _ -> false))

let test_lotus_conversion_bugs () =
  let where_graph () =
    let g = Graph.empty in
    let g, c = B.input g Dtype.Bool [ 1; 1 ] in
    let g, t = B.input g Dtype.F32 [ 3; 1 ] in
    let g, f = B.input g Dtype.F32 [ 2 ] in
    let g, _ = B.op g Op.Where [ c; t; f ] in
    g
  in
  with_bug "lotus.import_where_broadcast" (fun () ->
      check "the paper's Where(C1x1,T3x1,F2)" true
        (crashes_with "lotus.import_where_broadcast" (fun () ->
             Lotus.compile (where_graph ()))));
  let vec_matmul () =
    let g = Graph.empty in
    let g, a = B.input g Dtype.F32 [ 3 ] in
    let g, m = B.input g Dtype.F32 [ 3; 2 ] in
    let g, _ = B.op g Op.Mat_mul [ a; m ] in
    g
  in
  with_bug "lotus.import_matmul_vec" (fun () ->
      check "vector matmul import" true
        (crashes_with "lotus.import_matmul_vec" (fun () ->
             Lotus.compile (vec_matmul ()))));
  let scalar_reduce () =
    let g = Graph.empty in
    let g, x = B.input g Dtype.F32 [ 4 ] in
    let g, _ =
      B.op g (Op.Reduce (Op.R_sum, { r_axes = [ 0 ]; r_keepdims = false })) [ x ]
    in
    g
  in
  with_bug "lotus.import_scalar_reduce" (fun () ->
      check "scalar reduce import" true
        (crashes_with "lotus.import_scalar_reduce" (fun () ->
             Lotus.compile (scalar_reduce ()))));
  no_faults (fun () ->
      check "all importable without bugs" true
        (try
           ignore (Lotus.compile (where_graph ()));
           ignore (Lotus.compile (vec_matmul ()));
           ignore (Lotus.compile (scalar_reduce ()));
           true
         with Faults.Compiler_bug _ -> false))

let test_lotus_int32_shape_overflow () =
  let g = Graph.empty in
  let g, x = B.input g Dtype.I64 [ 2; 3 ] in
  let g, _ = B.op g (Op.Reshape [ 3; 2 ]) [ x ] in
  with_bug "lotus.int32_shape_overflow" (fun () ->
      check "i64 + shape op crash" true
        (crashes_with "lotus.int32_shape_overflow" (fun () -> Lotus.compile g)))

(* ------------------------------------------------------------------ *)
(* Lotus: low level (TIR)                                              *)

let f32t dims = Conc.make Dtype.F32 dims

let run_tir f inputs out_size =
  let out = Array.make out_size 0. in
  Tir.run f (Array.of_list inputs) out;
  out

(* The tree-walking interpreter that [Tir.run] replaced, kept as the oracle
   the closure-compiled runner is checked against: loop variables in an
   association list, operator functions looked up per element, the loop
   arm recorded at every loop entry. *)
module Oracle = struct
  open Tir

  let rec eval_iexpr env = function
    | Iconst n -> n
    | Ivar v -> (
        match List.assoc_opt v env with
        | Some n -> n
        | None -> raise (Tir_error ("unbound loop var " ^ v)))
    | Iadd (a, b) -> eval_iexpr env a + eval_iexpr env b
    | Imul (a, b) -> eval_iexpr env a * eval_iexpr env b
    | Idiv (a, b) ->
        let d = eval_iexpr env b in
        if d = 0 then raise (Tir_error "division by zero in index")
        else Nnsmith_smt.Expr.fdiv (eval_iexpr env a) d
    | Imod (a, b) ->
        let d = eval_iexpr env b in
        if d = 0 then raise (Tir_error "modulo by zero in index")
        else Nnsmith_smt.Expr.fmod (eval_iexpr env a) d

  let rec eval_vexpr env (inputs : float array array) = function
    | Vconst c -> c
    | Vload (b, i) ->
        let buf =
          if b < Array.length inputs then inputs.(b)
          else raise (Tir_error "bad buffer index")
        in
        let idx = eval_iexpr env i in
        if idx < 0 || idx >= Array.length buf then begin
          Cov.hit ~file:"lotus/runtime" "oob_load";
          raise (Tir_error "out-of-bounds load")
        end
        else buf.(idx)
    | Vbin (op, a, b) ->
        (Nnsmith_ops.Eval.binary_float_fn op) (eval_vexpr env inputs a)
          (eval_vexpr env inputs b)
    | Vun (op, a) ->
        (Nnsmith_ops.Eval.unary_float_fn op) (eval_vexpr env inputs a)
    | Vclip (lo, hi, a) -> Float.min hi (Float.max lo (eval_vexpr env inputs a))
    | Vleaky (al, a) ->
        let x = eval_vexpr env inputs a in
        if x >= 0. then x else al *. x

  let run (f : func) (inputs : float array array) (out : float array) : unit =
    let file = "lotus/runtime" in
    let rec exec env stmts =
      List.iter
        (fun s ->
          match s with
          | For { v; extent; kind; body } ->
              Cov.arm ~file "loop"
                (match kind with
                | Serial -> "serial"
                | Unrolled -> "unrolled"
                | Vectorized -> "vectorized");
              for k = 0 to extent - 1 do
                exec ((v, k) :: env) body
              done
          | Store { index; value } ->
              let idx = eval_iexpr env index in
              if idx < 0 || idx >= Array.length out then begin
                Cov.hit ~file "oob_store";
                raise (Tir_error "out-of-bounds store")
              end
              else out.(idx) <- eval_vexpr env inputs value)
        stmts
    in
    exec [] f.body
end

let test_lotus_chain_fusion () =
  (* a long unary chain must collapse into one fused kernel, with identical
     semantics *)
  no_faults (fun () ->
      let g = Graph.empty in
      let g, x = B.input g Dtype.F32 [ 2; 5 ] in
      let g, a = B.op g (Op.Unary Op.Tanh) [ x ] in
      let g, b = B.op g (Op.Unary Op.Abs) [ a ] in
      let g, c = B.op g (Op.Unary Op.Sqrt) [ b ] in
      let g, d = B.op g (Op.Clip { c_lo = -1.; c_hi = 1. }) [ c ] in
      let g, _ = B.op g (Op.Unary Op.Sin) [ d ] in
      let compiled = Lotus.compile g in
      let kernels =
        List.filter
          (fun (s : Lotus.compiled_step) ->
            match s.cs_step with Lotus.S_kernel _ -> true | _ -> false)
          compiled.steps
      in
      check_int "one fused kernel" 1 (List.length kernels);
      let binding = binding_for (rng ()) g in
      check "fused semantics" true
        (agree (reference g binding) (Lotus.run compiled binding)))

let test_lotus_cse_dce () =
  no_faults (fun () ->
      (* duplicate subexpression merged; dead branch removed *)
      let g = Graph.empty in
      let g, x = B.input g Dtype.F32 [ 3 ] in
      let g, a = B.op g (Op.Unary Op.Exp) [ x ] in
      let g, b = B.op g (Op.Unary Op.Exp) [ x ] in
      let g, _ = B.op g (Op.Binary Op.Add) [ a; b ] in
      let binding = binding_for (rng ()) g in
      check "cse correct" true (agree (reference g binding) (run_lotus g binding)))

let test_tir_lowering_matches_eval () =
  no_faults (fun () ->
      (* relu over [2;3] *)
      let f = Lower.lower_node ~name:"t" (Op.Unary Op.Relu) [ f32t [ 2; 3 ] ] (f32t [ 2; 3 ]) in
      let input = [| -1.; 2.; -3.; 4.; -5.; 6. |] in
      let out = run_tir f [ input ] 6 in
      Alcotest.(check (array (float 1e-6))) "relu" [| 0.; 2.; 0.; 4.; 0.; 6. |] out;
      (* broadcast add [2;3] + [3] *)
      let fa =
        Lower.lower_node ~name:"a" (Op.Binary Op.Add)
          [ f32t [ 2; 3 ]; f32t [ 3 ] ]
          (f32t [ 2; 3 ])
      in
      let out =
        run_tir fa [ [| 1.; 2.; 3.; 4.; 5.; 6. |]; [| 10.; 20.; 30. |] ] 6
      in
      Alcotest.(check (array (float 1e-6)))
        "bcast" [| 11.; 22.; 33.; 14.; 25.; 36. |] out)

let test_tir_optimized_equals_unoptimized () =
  no_faults (fun () ->
      let f =
        Lower.lower_node ~name:"o" (Op.Binary Op.Mul)
          [ f32t [ 2; 1; 4 ]; f32t [ 3; 1 ] ]
          (f32t [ 2; 3; 4 ])
      in
      let inputs =
        [ Array.init 8 float_of_int; Array.init 3 (fun i -> float_of_int (i + 1)) ]
      in
      let plain = run_tir f inputs 24 in
      let opt = run_tir (Tir.optimize f) inputs 24 in
      Alcotest.(check (array (float 1e-6))) "same" plain opt)

let test_tir_simplify_rules () =
  let open Tir in
  no_faults (fun () ->
      check "add0" true (simplify_iexpr (Iadd (Ivar "i", Iconst 0)) = Ivar "i");
      check "mul1" true (simplify_iexpr (Imul (Iconst 1, Ivar "i")) = Ivar "i");
      check "mul0" true (simplify_iexpr (Imul (Ivar "i", Iconst 0)) = Iconst 0);
      check "div1" true (simplify_iexpr (Idiv (Ivar "i", Iconst 1)) = Ivar "i");
      check "mod1" true (simplify_iexpr (Imod (Ivar "i", Iconst 1)) = Iconst 0);
      (* ((i/1) mod d) * 1 -> i mod d is sound *)
      check "divmulmod s=1" true
        (simplify_iexpr (Imul (Imod (Idiv (Ivar "i", Iconst 1), Iconst 5), Iconst 1))
        = Imod (Ivar "i", Iconst 5)))

let qcheck_simplify_preserves_value =
  QCheck.Test.make ~name:"simplify preserves index semantics" ~count:300
    QCheck.(pair (int_range 0 500) (int_range 0 10000))
    (fun (i, seed) ->
      Faults.deactivate_all ();
      let rng = Random.State.make [| seed |] in
      (* random small index expression over one variable *)
      let rec expr depth =
        if depth = 0 then
          if Random.State.bool rng then Tir.Ivar "i"
          else Tir.Iconst (Random.State.int rng 8)
        else
          let a = expr (depth - 1) and b = expr (depth - 1) in
          match Random.State.int rng 4 with
          | 0 -> Tir.Iadd (a, b)
          | 1 -> Tir.Imul (a, b)
          | 2 -> Tir.Idiv (a, Tir.Iconst (1 + Random.State.int rng 7))
          | _ -> Tir.Imod (a, Tir.Iconst (1 + Random.State.int rng 7))
      in
      let e = expr 3 in
      let env = [ ("i", i) ] in
      Oracle.eval_iexpr env (Tir.simplify_iexpr e) = Oracle.eval_iexpr env e)

let test_tir_unroll () =
  let open Tir in
  let loop =
    [
      For
        {
          v = "i";
          extent = 3;
          kind = Serial;
          body = [ Store { index = Ivar "i"; value = Vconst 1. } ];
        };
    ]
  in
  no_faults (fun () ->
      let f = { f_name = "u"; n_inputs = 0; body = loop } in
      let out = run_tir (pass_unroll f) [] 3 in
      Alcotest.(check (array (float 1e-6))) "all stored" [| 1.; 1.; 1. |] out);
  with_bug "lotus.unroll_off_by_one" (fun () ->
      let f = { f_name = "u"; n_inputs = 0; body = loop } in
      let out = run_tir (pass_unroll f) [] 3 in
      check "last iteration dropped" true (out.(2) = 0. && out.(0) = 1.))

let test_tir_vectorize () =
  let open Tir in
  let loop extent =
    {
      f_name = "v";
      n_inputs = 0;
      body =
        [
          For
            {
              v = "i";
              extent;
              kind = Serial;
              body = [ Store { index = Ivar "i"; value = Vconst 2. } ];
            };
        ];
    }
  in
  no_faults (fun () ->
      match (pass_vectorize (loop 8)).body with
      | [ For { kind = Vectorized; _ } ] -> ()
      | _ -> Alcotest.fail "divisible loop should vectorize");
  with_bug "lotus.vectorize_tail" (fun () ->
      check "non-divisible crash" true
        (crashes_with "lotus.vectorize_tail" (fun () -> pass_vectorize (loop 7))))

let test_tir_interpreter_errors () =
  let open Tir in
  let f =
    {
      f_name = "bad";
      n_inputs = 0;
      body = [ Store { index = Iconst 99; value = Vconst 1. } ];
    }
  in
  check "oob store" true
    (try
       ignore (run_tir f [] 4);
       false
     with Tir_error _ -> true)

(* [Tir.run] against the tree-walking oracle: the same output bits (also
   the partial output an error leaves), the same [Tir_error] message or
   none, and the same runtime coverage, with [Cov.reset] before each run so
   a loop arm remembered from an earlier call shows up as a missing site. *)
let tir_outcome run (f : Tir.func) inputs out_size =
  let out = Array.make out_size 0. in
  Cov.reset ();
  let error =
    match run f inputs out with
    | () -> None
    | exception Tir.Tir_error m -> Some m
  in
  (Array.map Int64.bits_of_float out, error, Cov.to_list (Cov.snapshot ()))

(* Returns whether the run raised, so callers can check that their inputs
   reach the error paths. *)
let check_tir_oracle name f inputs out_size =
  let bits, error, cov = tir_outcome Tir.run f inputs out_size in
  let bits', error', cov' = tir_outcome Oracle.run f inputs out_size in
  Alcotest.(check (option string)) (name ^ ": error") error' error;
  Alcotest.(check (list (pair string bool))) (name ^ ": coverage") cov' cov;
  check (name ^ ": output bits") true (bits = bits');
  error <> None

let all_unaries =
  Op.
    [|
      Abs; Neg; Exp; Log; Log2; Sqrt; Sin; Cos; Tan; Asin; Acos; Atan; Tanh;
      Sigmoid; Relu; Gelu; Floor; Ceil; Round; Sign; Reciprocal; Erf;
      Softplus; Softsign; Elu; Selu; Hardswish; Hardsigmoid;
    |]

let all_binaries = Op.[| Add; Sub; Mul; Div; Pow; Max2; Min2; Mod2 |]

(* A random [lower_node] or [lower_unary_chain] function with inputs whose
   values include NaN, the infinities, -0.0 and ties. *)
let random_lowered rng =
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let out = List.init (int 0 3) (fun _ -> int 1 4) in
  let bcast () =
    let r = int 0 (List.length out) in
    List.filteri (fun i _ -> i >= List.length out - r) out
    |> List.map (fun d -> if Random.State.int rng 3 = 0 then 1 else d)
  in
  let unary_step () =
    match Random.State.int rng 4 with
    | 0 -> Op.Clip { c_lo = -1.; c_hi = 2. }
    | 1 -> Op.Leaky_relu { alpha = 0.25 }
    | _ -> Op.Unary (pick all_unaries)
  in
  let node op ins =
    (Lower.lower_node ~name:"r" op (List.map f32t ins) (f32t out), ins)
  in
  let f, ins =
    match Random.State.int rng 5 with
    | 0 -> node (unary_step ()) [ out ]
    | 1 -> node (Op.Binary (pick all_binaries)) [ bcast (); bcast () ]
    | 2 -> node (Op.Expand out) [ bcast () ]
    | _ ->
        let ops = List.init (int 1 4) (fun _ -> unary_step ()) in
        (Lower.lower_unary_chain ~name:"c" ops (f32t out), [ out ])
  in
  let values =
    Float.[| nan; infinity; neg_infinity; -0.; 0.; 1.; 1.; -1.; 0.5 |]
  in
  let buffer dims =
    Array.init (List.fold_left ( * ) 1 dims) (fun _ ->
        if Random.State.bool rng then Random.State.float rng 6. -. 3.
        else pick values)
  in
  (f, Array.of_list (List.map buffer ins), List.fold_left ( * ) 1 out)

let test_tir_runner_matches_oracle () =
  let rng = Random.State.make [| 15 |] in
  let errors = ref 0 in
  let run name f inputs out_size =
    if check_tir_oracle name f inputs out_size then incr errors
  in
  for case = 1 to 150 do
    let f, inputs, out_size = random_lowered rng in
    let name = Printf.sprintf "case %d" case in
    no_faults (fun () -> run (name ^ " plain") f inputs out_size);
    List.iter
      (fun bugs ->
        let opt = Faults.with_bugs bugs (fun () -> Tir.optimize f) in
        run
          (Printf.sprintf "%s optimized [%s]" name (String.concat "," bugs))
          opt inputs out_size)
      [
        [];
        [ "lotus.unroll_off_by_one" ];
        [ "lotus.simplify_div_mul_mod" ];
        [ "lotus.unroll_off_by_one"; "lotus.simplify_div_mul_mod" ];
      ];
    let mutant =
      List.fold_left (fun f _ -> Tzer.mutate rng f) f (List.init 3 Fun.id)
    in
    no_faults (fun () ->
        run (name ^ " mutant") mutant inputs out_size;
        run (name ^ " mutant optimized") (Tir.optimize mutant) inputs out_size)
  done;
  check "some mutants reach an error" true (!errors > 0)

let test_tir_runner_error_precedence () =
  let open Tir in
  let loop ?(kind = Serial) v extent body = For { v; extent; kind; body } in
  let fn body = { f_name = "hand"; n_inputs = 1; body } in
  let i = Ivar "i" in
  let store index value = Store { index; value } in
  let buf = [| [| 1.; 2.; 3.; 4. |] |] in
  List.iter
    (fun (name, body) -> ignore (check_tir_oracle name (fn body) buf 4))
    [
      ("unbound load var", [ loop "i" 3 [ store i (Vload (0, Ivar "j")) ] ]);
      ("unbound store index", [ store i (Vconst 1.) ]);
      ( "unbound var never evaluated",
        [
          loop "i" 0 [ store (Ivar "j") (Vconst 1.) ];
          loop ~kind:Unrolled "k" 2 [ store (Ivar "k") (Vconst 2.) ];
        ] );
      ( "zero divisor left, out-of-bounds load right",
        [
          loop "i" 2
            [
              store i
                (Vbin
                   ( Op.Add,
                     Vload (0, Idiv (i, Iconst 0)),
                     Vload (0, Iadd (i, Iconst 100)) ));
            ];
        ] );
      ( "out-of-bounds load left, zero divisor right",
        [
          loop "i" 2
            [
              store i
                (Vbin
                   ( Op.Sub,
                     Vload (0, Iadd (i, Iconst 100)),
                     Vload (0, Imod (i, Iconst 0)) ));
            ];
        ] );
      ( "index operands: zero divisor both sides",
        [
          loop "i" 2
            [
              store (Iadd (Idiv (Iconst 3, i), Imod (Iconst 5, i))) (Vconst 1.);
            ];
        ] );
      ( "index operands: product",
        [
          loop "i" 2
            [
              store (Imul (Imod (Iconst 3, i), Idiv (Iconst 5, i))) (Vconst 1.);
            ];
        ] );
      ( "buffer check before load index",
        [ store (Iconst 0) (Vload (3, Idiv (Iconst 1, Iconst 0))) ] );
      ( "store index before value",
        [ store (Iconst 99) (Vload (0, Idiv (Iconst 1, Iconst 0))) ] );
      ( "out-of-bounds store mid-loop",
        [
          loop ~kind:Vectorized "i" 6
            [ store i (Vun (Op.Neg, Vload (0, Imod (i, Iconst 4)))) ];
        ] );
      ( "shadowed loop variable",
        [
          loop "i" 2
            [
              loop ~kind:Unrolled "i" 3 [ store i (Vconst 1.) ];
              loop "j" 2
                [
                  store
                    (Iadd (Imul (i, Iconst 2), Ivar "j"))
                    (Vload (0, Iadd (i, Ivar "j")));
                ];
            ];
        ] );
    ]

let test_lotus_divmulmod_semantic_bug () =
  (* broadcast with a non-innermost matching dim exercises the buggy rule *)
  let g = Graph.empty in
  let g, a = B.input g Dtype.F32 [ 2; 3; 4 ] in
  let g, b = B.input g Dtype.F32 [ 3; 1 ] in
  let g, _ = B.op g (Op.Binary Op.Add) [ a; b ] in
  let binding = binding_for (rng ()) g in
  no_faults (fun () ->
      check "sound simplification" true
        (agree (reference g binding) (run_lotus g binding)));
  with_bug "lotus.simplify_div_mul_mod" (fun () ->
      check "unsound reorder detected" false
        (try agree (reference g binding) (run_lotus g binding) with _ -> false))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "compilers"
    [
      ( "oxrt",
        [
          tc "O0/O2 = reference" `Slow test_oxrt_o0_equals_reference;
          tc "constant folding" `Quick test_oxrt_constant_folding;
          tc "identity elim" `Quick test_oxrt_identity_elim;
          tc "add-zero broadcast guard" `Quick test_oxrt_add_zero_broadcast_guard;
          tc "fuse relu-clip" `Quick test_oxrt_fuse_relu_clip;
          tc "fuse matmul-scale" `Quick test_oxrt_fuse_matmul_scale;
          tc "fuse gemm" `Quick test_oxrt_fuse_gemm;
          tc "fuse bias-softmax" `Quick test_oxrt_fuse_bias_softmax;
          tc "fuse pad-conv" `Quick test_oxrt_fuse_pad_conv;
          tc "cse" `Quick test_oxrt_cse;
          tc "where fold" `Quick test_oxrt_where_fold;
          tc "cast elim" `Quick test_oxrt_cast_elim;
          tc "avgpool include-pad" `Quick test_oxrt_avgpool_include_pad;
          tc "rejects invalid models" `Quick test_oxrt_rejects_invalid;
        ] );
      ( "trt",
        [
          tc "reduce keepdims crash" `Quick test_trt_reduce_keepdims;
          tc "sigmoid precision" `Quick test_trt_sigmoid_precision;
        ] );
      ( "lotus-graph",
        [
          tc "O0/O2 = reference" `Slow test_lotus_o0_o2_equal_reference;
          tc "fold transpose pair" `Quick test_lotus_fold_transpose_pair;
          tc "layout bugs" `Quick test_lotus_layout_bugs;
          tc "conversion bugs" `Quick test_lotus_conversion_bugs;
          tc "i32/i64 shape overflow" `Quick test_lotus_int32_shape_overflow;
          tc "chain fusion" `Quick test_lotus_chain_fusion;
          tc "cse/dce" `Quick test_lotus_cse_dce;
        ] );
      ( "lotus-tir",
        [
          tc "lowering matches eval" `Quick test_tir_lowering_matches_eval;
          tc "optimized = unoptimized" `Quick test_tir_optimized_equals_unoptimized;
          tc "simplify rules" `Quick test_tir_simplify_rules;
          QCheck_alcotest.to_alcotest qcheck_simplify_preserves_value;
          tc "unroll" `Quick test_tir_unroll;
          tc "vectorize" `Quick test_tir_vectorize;
          tc "interpreter errors" `Quick test_tir_interpreter_errors;
          tc "runner = oracle" `Quick test_tir_runner_matches_oracle;
          tc "runner error precedence" `Quick test_tir_runner_error_precedence;
          tc "div/mul/mod semantic bug" `Quick test_lotus_divmulmod_semantic_bug;
        ] );
    ]
