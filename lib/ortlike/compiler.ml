(** OxRT's optimizer and kernel dispatch.

    Pattern-directed rewrite passes in the style of ONNXRuntime's
    onnxruntime/core/optimizer tree; each pass is instrumented with coverage
    sites and hosts the seeded defects listed in {!Nnsmith_faults.Faults}. *)

module Nd = Nnsmith_tensor.Nd
module Dtype = Nnsmith_tensor.Dtype
module Linalg = Nnsmith_tensor.Linalg
module Reduce = Nnsmith_tensor.Reduce
module Op = Nnsmith_ir.Op
module Conc = Nnsmith_ir.Ttype.Conc
module Graph = Nnsmith_ir.Graph
module Eval = Nnsmith_ops.Eval
module Cov = Nnsmith_coverage.Coverage
module Faults = Nnsmith_faults.Faults
open Ir

type profile = Standard | Trt_strict
type opt_level = O0 | O2

type compiled = {
  gir : gir;
  profile : profile;
  source_outputs : int list;  (** output ids of the original model *)
}

(* ------------------------------------------------------------------ *)
(* Rewriting machinery.                                                *)

let resolve alias id =
  let rec go id =
    match Hashtbl.find_opt alias id with Some id' -> go id' | None -> id
  in
  go id

let apply_alias g alias =
  g.nodes <-
    List.map
      (fun n -> { n with inputs = List.map (resolve alias) n.inputs })
      g.nodes;
  g.outputs <- List.map (resolve alias) g.outputs

let replace_node g id node' =
  g.nodes <- List.map (fun n -> if n.id = id then node' else n) g.nodes

(* Dead-code elimination: drop nodes unreachable from the outputs. *)
let dce g =
  let live = Hashtbl.create 32 in
  let rec mark id =
    if not (Hashtbl.mem live id) then begin
      Hashtbl.replace live id ();
      match find_opt g id with
      | Some n -> List.iter mark n.inputs
      | None -> ()
    end
  in
  List.iter mark g.outputs;
  let before = List.length g.nodes in
  g.nodes <- List.filter (fun n -> Hashtbl.mem live n.id) g.nodes;
  ignore
    (Cov.branch ~pass:true ~file:"oxrt/optimizer/dce" "removed"
       (List.length g.nodes < before))

(* ------------------------------------------------------------------ *)
(* Passes.                                                             *)

let pass_constant_folding g =
  let file = "oxrt/optimizer/constant_folding" in
  let consts = Hashtbl.create 16 in
  List.iter
    (fun n ->
      match n.op with
      | Const t -> Hashtbl.replace consts n.id t
      | Plain (Op.Leaf _) -> ()
      | Plain op ->
          let ins = List.map (Hashtbl.find_opt consts) n.inputs in
          if
            Cov.branch ~pass:true ~file "all_const"
              (ins <> [] && List.for_all Option.is_some ins)
          then begin
            let ins = List.map Option.get ins in
            match Eval.eval op ins with
            | v ->
                if
                  Faults.enabled "oxrt.constant_fold_pow"
                  && (match op with Op.Binary Op.Pow -> true | _ -> false)
                  && Nd.has_bad v
                then
                  Faults.crash "oxrt.constant_fold_pow"
                    "constant folding of Pow produced a non-finite value";
                Hashtbl.replace consts n.id v;
                replace_node g n.id { n with op = Const v; inputs = [] }
            | exception Eval.Eval_error _ -> Cov.hit ~pass:true ~file "eval_failed"
          end
      | Fused_gemm | Fused_bias_softmax _ | Fused_relu_clip _
      | Fused_matmul_scale _ ->
          ())
    g.nodes

let const_is_uniform g id value =
  match const_of g id with
  | Some t ->
      let n = Nd.numel t in
      let ok = ref (n > 0) in
      for i = 0 to n - 1 do
        if Nd.to_float t i <> value then ok := false
      done;
      !ok
  | None -> false

let pass_identity_elimination g =
  let file = "oxrt/optimizer/identity_elim" in
  let alias = Hashtbl.create 8 in
  let same_shape a b =
    Conc.equal (find g a).out_type (find g b).out_type
  in
  List.iter
    (fun n ->
      match (n.op, List.map (resolve alias) n.inputs) with
      | Plain (Op.Binary Op.Add), [ x; z ]
        when Cov.branch ~pass:true ~file "add_zero"
               (const_is_uniform g z 0. || const_is_uniform g x 0.) ->
          let kept, zero = if const_is_uniform g z 0. then (x, z) else (z, x) in
          if Cov.branch ~pass:true ~file "add_zero_shape" (same_shape kept n.id)
          then Hashtbl.replace alias n.id kept
          else if Faults.enabled "oxrt.identity_add_zero_broadcast" then begin
            ignore zero;
            Faults.crash "oxrt.identity_add_zero_broadcast"
              "eliminated Add whose zero operand broadcast-expands the shape"
          end
      | Plain (Op.Binary Op.Mul), [ x; z ]
        when Cov.branch ~pass:true ~file "mul_one"
               (const_is_uniform g z 1. || const_is_uniform g x 1.) ->
          let kept = if const_is_uniform g z 1. then x else z in
          if same_shape kept n.id then Hashtbl.replace alias n.id kept
      | Plain (Op.Unary Op.Neg), [ x ] -> (
          match (find g x).op with
          | Plain (Op.Unary Op.Neg) ->
              Cov.hit ~pass:true ~file "double_neg";
              Hashtbl.replace alias n.id
                (resolve alias (List.hd (find g x).inputs))
          | _ -> ())
      | Plain Op.Not, [ x ] -> (
          match (find g x).op with
          | Plain Op.Not ->
              Cov.hit ~pass:true ~file "double_not";
              Hashtbl.replace alias n.id
                (resolve alias (List.hd (find g x).inputs))
          | _ -> ())
      | Plain (Op.Unary Op.Relu), [ x ] -> (
          match (find g x).op with
          | Plain (Op.Unary Op.Relu) ->
              Cov.hit ~pass:true ~file "double_relu";
              Hashtbl.replace alias n.id x
          | _ -> ())
      | Plain (Op.Transpose perm), [ x ]
        when Cov.branch ~pass:true ~file "transpose_id"
               (Array.to_list perm = List.init (Array.length perm) Fun.id) ->
          Hashtbl.replace alias n.id x
      | _, _ -> ())
    g.nodes;
  apply_alias g alias

let pass_fuse_relu_clip g =
  let file = "oxrt/optimizer/fuse_relu_clip" in
  List.iter
    (fun n ->
      match (n.op, n.inputs) with
      | Plain (Op.Clip { c_lo; c_hi }), [ x ] -> (
          match (find g x).op with
          | Plain (Op.Unary Op.Relu) ->
              let inner = List.hd (find g x).inputs in
              let wrong_f64 =
                Faults.enabled "oxrt.fuse_relu_clip_f64"
                && Conc.dtype n.out_type = Dtype.F64
              in
              ignore (Cov.branch ~pass:true ~file "f64" (Conc.dtype n.out_type = Dtype.F64));
              let lo = if wrong_f64 then c_lo else Float.max 0. c_lo in
              replace_node g n.id
                {
                  n with
                  op = Fused_relu_clip { frc_lo = lo; frc_hi = c_hi };
                  inputs = [ inner ];
                }
          | _ -> Cov.hit ~pass:true ~file "no_match")
      | _ -> ())
    g.nodes

let pass_fuse_matmul_scale g =
  let file = "oxrt/optimizer/fuse_matmul_scale" in
  let scaled id =
    (* id = Mul(scalar_const, t) or Mul(t, scalar_const)? *)
    match find g id with
    | { op = Plain (Op.Binary Op.Mul); inputs = [ a; b ]; _ } -> (
        match (scalar_const g a, scalar_const g b) with
        | Some s, None -> Some (s, b)
        | None, Some s -> Some (s, a)
        | Some s, Some _ -> Some (s, b)
        | None, None -> None)
    | _ -> None
  in
  List.iter
    (fun n ->
      match (n.op, n.inputs) with
      | Plain Op.Mat_mul, [ a; b ] -> (
          match (scaled a, scaled b) with
          | None, None -> Cov.hit ~pass:true ~file "no_scale"
          | sa, sb ->
              let scale_a, a' = Option.value sa ~default:(1., a) in
              let scale_b, b' = Option.value sb ~default:(1., b) in
              Cov.hit ~pass:true ~file "fuse";
              let one_by_one id =
                Conc.dims (find g id).out_type = [ 1; 1 ]
              in
              if
                Faults.enabled "oxrt.fuse_matmul_scale_1x1"
                && Cov.branch ~pass:true ~file "operand_1x1"
                     (one_by_one a' || one_by_one b')
              then
                Faults.crash "oxrt.fuse_matmul_scale_1x1"
                  "rewrote 1x1 matrix as scalar: MatMul does not accept \
                   scalar inputs";
              replace_node g n.id
                {
                  n with
                  op = Fused_matmul_scale { scale = scale_a *. scale_b };
                  inputs = [ a'; b' ];
                })
      | _ -> ())
    g.nodes

let pass_fuse_gemm g =
  let file = "oxrt/optimizer/fuse_gemm" in
  List.iter
    (fun n ->
      match (n.op, n.inputs) with
      | Plain (Op.Binary Op.Add), [ x; y ] ->
          let as_matmul id =
            match find g id with
            | { op = Plain Op.Mat_mul; inputs = [ a; b ]; out_type; _ }
              when Conc.rank out_type = 2 ->
                Some (a, b)
            | _ -> None
          in
          let pick =
            match (as_matmul x, as_matmul y) with
            | Some (a, b), _ -> Some (a, b, y)
            | None, Some (a, b) -> Some (a, b, x)
            | None, None -> None
          in
          (match pick with
          | Some (a, b, bias) when Conc.rank (find g bias).out_type <= 1 ->
              Cov.hit ~pass:true ~file "fuse";
              if
                Faults.enabled "oxrt.gemm_fuse_scalar_bias"
                && Cov.branch ~pass:true ~file "bias_rank0"
                     (Conc.rank (find g bias).out_type = 0)
              then
                Faults.crash "oxrt.gemm_fuse_scalar_bias"
                  "Gemm fusion: rank-0 bias dereferenced as rank-1";
              replace_node g n.id
                { n with op = Fused_gemm; inputs = [ a; b; bias ] }
          | _ -> Cov.hit ~pass:true ~file "no_match")
      | _ -> ())
    g.nodes

let pass_fuse_bias_softmax g =
  let file = "oxrt/optimizer/fuse_bias_softmax" in
  List.iter
    (fun n ->
      match (n.op, n.inputs) with
      | Plain (Op.Softmax { sm_axis }), [ x ] -> (
          match find g x with
          | { op = Plain (Op.Binary Op.Add); inputs = [ a; bias ]; _ } ->
              Cov.hit ~pass:true ~file "fuse";
              ignore
                (Cov.branch ~pass:true ~file "bias_lower_rank"
                   (Conc.rank (find g bias).out_type
                   < Conc.rank (find g a).out_type));
              replace_node g n.id
                {
                  n with
                  op = Fused_bias_softmax { fbs_axis = sm_axis };
                  inputs = [ a; bias ];
                }
          | _ -> Cov.hit ~pass:true ~file "no_match")
      | _ -> ())
    g.nodes

let pass_fuse_pad_conv g =
  let file = "oxrt/optimizer/fuse_pad_conv" in
  List.iter
    (fun n ->
      match (n.op, n.inputs) with
      | Plain (Op.Conv2d attrs), [ x; w ] -> (
          match find g x with
          | {
           op = Plain (Op.Pad (Op.Pad_constant 0., { pad_before; pad_after }));
           inputs = [ src ];
           _;
          } -> (
              match (pad_before, pad_after) with
              | [ 0; 0; bh; bw ], [ 0; 0; ah; aw ]
                when Cov.branch ~pass:true ~file "symmetric"
                       (bh = ah && bw = aw && bh = bw) ->
                  let amount = bh in
                  if
                    Cov.branch ~pass:true ~file "negative"
                      (amount < 0)
                  then begin
                    if Faults.enabled "oxrt.fuse_pad_conv_negative" then
                      Faults.crash "oxrt.fuse_pad_conv_negative"
                        "folded negative padding into Conv2d"
                  end
                  else
                    replace_node g n.id
                      {
                        n with
                        op =
                          Plain
                            (Op.Conv2d
                               { attrs with padding = attrs.padding + amount });
                        inputs = [ src; w ];
                      }
              | _ -> Cov.hit ~pass:true ~file "asymmetric")
          | _ -> Cov.hit ~pass:true ~file "no_pad")
      | _ -> ())
    g.nodes

let pass_transpose_pushdown g =
  let file = "oxrt/optimizer/transpose_pushdown" in
  List.iter
    (fun n ->
      match (n.op, n.inputs) with
      | Plain (Op.Binary b), [ x; c ] -> (
          match (find g x, const_of g c) with
          | { op = Plain (Op.Transpose perm); inputs = [ inner ]; _ }, Some cv
            ->
              if
                Cov.branch ~pass:true ~file "const_scalar" (Nd.numel cv = 1)
              then begin
                (* Binary(Transpose(a), scalar) -> Transpose(Binary(a, scalar)) *)
                let inner_t = (find g inner).out_type in
                let mid =
                  {
                    id = fresh_id g;
                    op = Plain (Op.Binary b);
                    inputs = [ inner; c ];
                    out_type = inner_t;
                  }
                in
                (* splice the new node just before n *)
                g.nodes <-
                  List.concat_map
                    (fun m -> if m.id = n.id then [ mid; m ] else [ m ])
                    g.nodes;
                replace_node g n.id
                  { n with op = Plain (Op.Transpose perm); inputs = [ mid.id ] }
              end
              else if Faults.enabled "oxrt.transpose_pushdown_perm" then
                Faults.crash "oxrt.transpose_pushdown_perm"
                  "transpose pushdown through broadcasting operand"
          | _ -> ())
      | _ -> ())
    g.nodes

(* Full structural identity of the operator — except that the seeded defect
   canonicalises Slice attributes away, merging distinct slices. *)
let attr_key ~buggy (op : oxop) : oxop =
  match op with
  | Plain (Op.Slice { s_axis; _ }) when buggy ->
      Plain (Op.Slice { s_axis; s_start = 0; s_stop = 0 })
  | op -> op

let pass_cse g =
  let file = "oxrt/optimizer/cse" in
  let buggy = Faults.enabled "oxrt.cse_ignores_attrs" in
  let seen = Hashtbl.create 16 in
  let alias = Hashtbl.create 8 in
  List.iter
    (fun n ->
      match n.op with
      | Plain (Op.Leaf _) | Const _ -> ()
      | _ ->
          let key =
            ( attr_key ~buggy n.op,
              List.map (resolve alias) n.inputs )
          in
          (match Hashtbl.find_opt seen key with
          | Some prior ->
              Cov.hit ~pass:true ~file "merged";
              Hashtbl.replace alias n.id prior
          | None ->
              Cov.hit ~pass:true ~file "fresh";
              Hashtbl.replace seen key n.id))
    g.nodes;
  apply_alias g alias

let pass_where_fold g =
  let file = "oxrt/optimizer/where_fold" in
  let alias = Hashtbl.create 4 in
  List.iter
    (fun n ->
      match (n.op, n.inputs) with
      | Plain Op.Where, [ c; t; f ] ->
          let uniform v = const_is_uniform g c v in
          if Cov.branch ~pass:true ~file "const_cond" (uniform 1. || uniform 0.)
          then begin
            let chosen = if uniform 1. then t else f in
            if
              Cov.branch ~pass:true ~file "shape_exact"
                (Conc.equal (find g chosen).out_type n.out_type)
            then Hashtbl.replace alias n.id chosen
            else if Faults.enabled "oxrt.where_const_cond_fold" then
              Faults.crash "oxrt.where_const_cond_fold"
                "folded Where dropped the broadcast contribution of the \
                 other branch"
            else
              (* correct: keep the shape with an explicit Expand *)
              replace_node g n.id
                {
                  n with
                  op = Plain (Op.Expand (Conc.dims n.out_type));
                  inputs = [ chosen ];
                }
          end
      | _ -> ())
    g.nodes;
  apply_alias g alias

let pass_cast_elimination g =
  let file = "oxrt/optimizer/cast_elim" in
  let alias = Hashtbl.create 4 in
  List.iter
    (fun n ->
      match (n.op, n.inputs) with
      | Plain (Op.Cast d2), [ x ] -> (
          match find g x with
          | { op = Plain (Op.Cast _); inputs = [ y ]; _ } ->
              let dy = Conc.dtype (find g y).out_type in
              let d1 = Conc.dtype (find g x).out_type in
              if Cov.branch ~pass:true ~file "roundtrip" (dy = d2) then begin
                let lossless =
                  match (dy, d1) with
                  | Dtype.F32, Dtype.F64 -> true
                  | Dtype.I32, Dtype.I64 -> true
                  | Dtype.Bool, _ -> false
                  | _ -> false
                in
                if lossless then Hashtbl.replace alias n.id y
                else if
                  Faults.enabled "oxrt.cast_chain_wrap"
                  && Dtype.is_float dy && Dtype.is_int d1
                then Hashtbl.replace alias n.id y (* drops trunc+wrap *)
              end
          | _ -> ())
      | _ -> ())
    g.nodes;
  apply_alias g alias

let all_passes =
  [
    ("constant_folding", pass_constant_folding);
    ("identity_elim", pass_identity_elimination);
    ("fuse_relu_clip", pass_fuse_relu_clip);
    ("fuse_matmul_scale", pass_fuse_matmul_scale);
    ("fuse_gemm", pass_fuse_gemm);
    ("fuse_bias_softmax", pass_fuse_bias_softmax);
    ("fuse_pad_conv", pass_fuse_pad_conv);
    ("transpose_pushdown", pass_transpose_pushdown);
    ("cse", pass_cse);
    ("where_fold", pass_where_fold);
    ("cast_elim", pass_cast_elimination);
  ]

(* ------------------------------------------------------------------ *)
(* TRT-strict front-end checks (the closed-source profile).            *)

let trt_checks g =
  List.iter
    (fun n ->
      match n.op with
      | Plain (Op.Reduce (_, { r_axes; r_keepdims })) ->
          if
            Faults.enabled "trt.reduce_keepdims_multi"
            && r_keepdims
            && List.length r_axes >= 2
          then
            Faults.crash "trt.reduce_keepdims_multi"
              "builder assert: keepdims reduce over multiple axes"
      | Plain (Op.Concat { cat_axis = 0; _ }) ->
          if
            Faults.enabled "trt.concat_unit_axis0"
            && List.for_all
                 (fun i -> List.nth (Conc.dims (find g i).out_type) 0 = 1)
                 n.inputs
          then
            Faults.crash "trt.concat_unit_axis0"
              "builder assert: axis-0 concat of unit dims"
      | Plain (Op.Clip _) ->
          let dt = Conc.dtype n.out_type in
          if Dtype.is_int dt && not (Faults.enabled "trt.clip_i32_attrs") then
            raise
              (Faults.Compiler_bug "[reject] Clip: int tensors unsupported")
      | _ -> ())
    g.nodes

(* ------------------------------------------------------------------ *)
(* Compilation and execution.                                          *)

let compile ?(profile = Standard) ?(opt_level = O2) (g : Graph.t) : compiled =
  let gir = import ~lax:(profile = Trt_strict) g in
  let source_outputs = gir.outputs in
  (match profile with Trt_strict -> trt_checks gir | Standard -> ());
  (match opt_level with
  | O0 -> ()
  | O2 ->
      List.iter
        (fun (_, pass) ->
          pass gir;
          dce gir)
        all_passes);
  { gir; profile; source_outputs }

(* Kernel dispatch with the runtime-level seeded defects. *)
let run_node profile values (n : node) : Nd.t =
  let file = "oxrt/kernels" in
  let ins () = List.map (Hashtbl.find values) n.inputs in
  match n.op with
  | Const t -> t
  | Plain (Op.Leaf _) -> assert false (* bound before dispatch *)
  | Plain (Op.Pool2d (Op.P_avg, { p_kh; p_kw; p_stride; p_padding }))
    when Faults.enabled "oxrt.avgpool_include_pad" && p_padding > 0 ->
      Cov.arm ~file "kernel" "avgpool_pad";
      (* include-pad average: the divisor counts the padded cells *)
      Linalg.avg_pool2d_include_pad ~kernel:(p_kh, p_kw)
        ~stride:(p_stride, p_stride) ~padding:(p_padding, p_padding)
        (List.hd (ins ()))
  | Plain (Op.Unary Op.Sigmoid)
    when profile = Trt_strict
         && Faults.enabled "trt.sigmoid_f64_precision"
         && Conc.dtype n.out_type = Dtype.F64 ->
      Cov.arm ~file "kernel" "sigmoid_fast";
      Nd.map_f (fun x -> Float.max 0. (Float.min 1. ((x /. 6.) +. 0.5)))
        (List.hd (ins ()))
  | Plain (Op.Clip { c_lo; c_hi })
    when profile = Trt_strict
         && Faults.enabled "trt.clip_i32_attrs"
         && Dtype.is_int (Conc.dtype n.out_type) ->
      Cov.arm ~file "kernel" "clip_i32";
      (* misinterpreted attributes: bounds swapped *)
      Nd.map_i
        (fun v -> min (int_of_float c_lo) (max (int_of_float c_hi) v))
        (List.hd (ins ()))
  | Plain op ->
      Cov.arm ~file "kernel" (Op.name op);
      (* kernel specialisation by attribute class, as in ORT's per-shape /
         per-attribute kernel selection; these arms are what attribute
         binning (Algorithm 2) buys coverage on *)
      let bucket v =
        if v <= 0 then "0"
        else if v = 1 then "1"
        else if v = 2 then "2"
        else if v <= 4 then "4"
        else if v <= 8 then "8"
        else "big"
      in
      (match op with
      | Op.Conv2d { kh; kw; stride; padding; _ } ->
          Cov.arm ~file "conv_kernel"
            (if kh = 1 && kw = 1 then "pointwise"
             else if kh = kw then "square"
             else "rect");
          Cov.arm ~file "conv_kh" (bucket kh);
          Cov.arm ~file "conv_kw" (bucket kw);
          Cov.arm ~file "conv_stride" (bucket stride);
          Cov.arm ~file "conv_pad" (bucket padding)
      | Op.Pool2d (_, { p_kh; p_kw; p_stride; p_padding }) ->
          Cov.arm ~file "pool_kernel"
            (if p_kh = 1 && p_kw = 1 then "unit" else "window");
          Cov.arm ~file "pool_kh" (bucket p_kh);
          Cov.arm ~file "pool_kw" (bucket p_kw);
          Cov.arm ~file "pool_stride" (bucket p_stride);
          Cov.arm ~file "pool_pad" (bucket p_padding)
      | Op.Slice { s_start; s_stop; _ } ->
          Cov.arm ~file "slice_start" (if s_start = 0 then "zero" else "offset");
          Cov.arm ~file "slice_len" (bucket (s_stop - s_start))
      | Op.Pad (_, { pad_before; pad_after }) ->
          Cov.arm ~file "pad_sign"
            (if List.exists (fun p -> p < 0) (pad_before @ pad_after) then "crop"
             else "grow");
          Cov.arm ~file "pad_width"
            (if List.exists (fun p -> p > 4) (pad_before @ pad_after) then "wide"
             else "narrow")
      | Op.Reshape dims ->
          Cov.arm ~file "reshape_rank" (string_of_int (List.length dims));
          List.iter (fun d -> Cov.arm ~file "reshape_dim" (bucket d)) dims
      | Op.Concat { cat_n; _ } ->
          Cov.arm ~file "concat_arity" (string_of_int cat_n)
      | Op.Reduce (_, { r_axes; r_keepdims }) ->
          Cov.arm ~file "reduce_axes"
            (if List.length r_axes > 1 then "multi" else "single");
          Cov.arm ~file "reduce_keep" (string_of_bool r_keepdims)
      | _ -> ());
      (match Conc.dims n.out_type with
      | [] -> Cov.arm ~file "out_rank" "scalar"
      | dims ->
          Cov.arm ~file "out_rank" (string_of_int (List.length dims));
          Cov.arm ~file "out_width"
            (let m = List.fold_left max 1 dims in
             if m <= 2 then "tiny" else if m <= 16 then "small"
             else if m <= 128 then "medium" else "large"));
      Eval.eval op (ins ())
  | Fused_gemm -> (
      Cov.arm ~file "kernel" "gemm";
      match ins () with
      | [ a; b; bias ] ->
          Nd.map2_f (Nd.dtype a) ( +. ) (Linalg.matmul a b) bias
      | _ -> assert false)
  | Fused_bias_softmax { fbs_axis } -> (
      Cov.arm ~file "kernel" "bias_softmax";
      match ins () with
      | [ x; bias ] ->
          if
            Faults.enabled "oxrt.fuse_bias_softmax_axis"
            && Nd.rank bias < Nd.rank x
          then
            (* wrong order: bias applied after the softmax *)
            Nd.map2_f (Nd.dtype x) ( +. ) (Reduce.softmax ~axis:fbs_axis x) bias
          else
            Reduce.softmax ~axis:fbs_axis (Nd.map2_f (Nd.dtype x) ( +. ) x bias)
      | _ -> assert false)
  | Fused_relu_clip { frc_lo; frc_hi } ->
      Cov.arm ~file "kernel" "relu_clip";
      Nd.map_f (fun v -> Float.min frc_hi (Float.max frc_lo v)) (List.hd (ins ()))
  | Fused_matmul_scale { scale } -> (
      Cov.arm ~file "kernel" "matmul_scale";
      match ins () with
      | [ a; b ] -> Nd.map_f (fun v -> scale *. v) (Linalg.matmul a b)
      | _ -> assert false)

(** Execute a compiled model.  [binding] maps the *original* model's leaf ids
    to tensors (Const_fill leaves may be omitted). *)
let run (c : compiled) (binding : (int * Nd.t) list) : (int * Nd.t) list =
  let values : (int, Nd.t) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun n ->
      let v =
        match n.op with
        | Plain (Op.Leaf (Op.Model_input | Op.Model_weight)) -> (
            match List.assoc_opt n.id binding with
            | Some t -> t
            | None ->
                raise
                  (Faults.Compiler_bug
                     (Printf.sprintf "[runtime] unbound leaf %%%d" n.id)))
        | _ -> run_node c.profile values n
      in
      Hashtbl.replace values n.id v)
    c.gir.nodes;
  List.map2
    (fun src cur -> (src, Hashtbl.find values cur))
    c.source_outputs c.gir.outputs
