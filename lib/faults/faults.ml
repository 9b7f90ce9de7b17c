(** The seeded-bug registry.

    We cannot re-find the paper's 72 bugs in software we do not have, so each
    bug class from §5.4 is modelled as a *seeded defect* injected into the
    pass code of the simulated compilers (guarded by [enabled]); the bug
    study (Table 3) then measures which generator designs can trigger which
    classes, mirroring the paper's analysis that 49 of 72 bugs are out of
    reach for LEMON/GraphFuzzer.

    Compilers raise {!Compiler_bug} for crash defects; semantic defects
    silently corrupt results and are caught by differential testing. *)

type category = Transformation | Conversion | Unclassified
type effect = Crash | Semantic

type bug = {
  b_id : string;  (** unique key, prefixed by system: "oxrt.", "lotus."... *)
  system : string;  (** "OxRT" | "Lotus" | "TRT" | "Exporter" *)
  category : category;
  effect : effect;
  description : string;
}

exception Compiler_bug of string
(** Raised by a compiler when a seeded crash defect fires; the message is
    the dedup key, as in the paper's unique-crash counting. *)

let bug b_id system category effect description =
  { b_id; system; category; effect; description }

let catalogue : bug list =
  [
    (* ---- OxRT: pattern-directed graph optimizer (ONNXRuntime analogue) *)
    bug "oxrt.fuse_matmul_scale_1x1" "OxRT" Transformation Crash
      "FuseMatMulScale mistakes a 1x1 matrix for a scalar and rewrites \
       (sa*A)@(sb*B) illegally";
    bug "oxrt.fuse_relu_clip_f64" "OxRT" Transformation Semantic
      "Relu-Clip fusion on f64 drops the lower clip bound \
       (shape-preserving; reachable by all generators)";
    bug "oxrt.fuse_bias_softmax_axis" "OxRT" Transformation Semantic
      "BiasSoftmax fusion mishandles a broadcast bias of lower rank";
    bug "oxrt.transpose_pushdown_perm" "OxRT" Transformation Crash
      "Transpose pushdown composes the wrong permutation through a \
       broadcasting binary operator";
    bug "oxrt.cse_ignores_attrs" "OxRT" Transformation Semantic
      "CSE merges Slice nodes that differ only in their start attribute";
    bug "oxrt.constant_fold_pow" "OxRT" Transformation Crash
      "Constant folding of Pow overflows and asserts instead of \
       materialising infinity";
    bug "oxrt.identity_add_zero_broadcast" "OxRT" Transformation Crash
      "Add-zero elimination removes an Add whose zero operand broadcast- \
       expands the result shape (the paper's M0 pattern)";
    bug "oxrt.fuse_pad_conv_negative" "OxRT" Transformation Crash
      "Pad-into-Conv folding accepts negative padding, producing an \
       invalid convolution";
    bug "oxrt.gemm_fuse_scalar_bias" "OxRT" Transformation Crash
      "MatMul+Add fusion into Gemm crashes on a rank-0 bias";
    bug "oxrt.avgpool_include_pad" "OxRT" Transformation Semantic
      "Optimized AveragePool divides by the full window even over padding";
    bug "oxrt.where_const_cond_fold" "OxRT" Unclassified Crash
      "Folding Where with a constant condition ignores the shape \
       contribution of the dropped branch";
    bug "oxrt.cast_chain_wrap" "OxRT" Unclassified Semantic
      "Cast-chain elimination drops the int32 wrap of f->i32->f chains";
    (* ---- Lotus: two-level compiler (TVM analogue) *)
    bug "lotus.layout_nchw4c_broadcast" "Lotus" Transformation Crash
      "NCHW4c layout packing crashes when Conv2d feeds a broadcasting Add \
       with a lower-rank operand";
    bug "lotus.layout_nchw4c_squeeze" "Lotus" Transformation Crash
      "NCHW4c layout packing crashes when Conv2d feeds Squeeze";
    bug "lotus.simplify_div_mul_mod" "Lotus" Transformation Semantic
      "Arithmetic simplifier rewrites floor(a/i)*i to a under mod, \
       reordering division and multiplication incorrectly";
    bug "lotus.int32_shape_overflow" "Lotus" Transformation Crash
      "int32/int64 mismatch in shape arithmetic introduced by \
       shape-attribute operators (Reshape/Expand) with i64 tensors";
    bug "lotus.fuse_injective_reduce" "Lotus" Transformation Crash
      "Operator fusion merges an injective producer into a reduce group \
       and loses the reduced axes";
    bug "lotus.unroll_off_by_one" "Lotus" Transformation Semantic
      "Low-level loop unrolling duplicates the last iteration for small \
       extents";
    bug "lotus.vectorize_tail" "Lotus" Transformation Crash
      "Low-level vectorization asserts on extents not divisible by the \
       vector width";
    bug "lotus.fold_transpose_pair" "Lotus" Transformation Semantic
      "Folding adjacent Transpose nodes composes the permutations in the \
       wrong order";
    bug "lotus.import_where_broadcast" "Lotus" Conversion Crash
      "Where import ignores the lowest-ranked operand during 3-way \
       broadcast shape inference (the paper's Where(C[1x1],T[3x1],F[2]))";
    bug "lotus.import_scalar_reduce" "Lotus" Conversion Crash
      "Importing reduce-like operators that produce a scalar crashes";
    bug "lotus.import_matmul_vec" "Lotus" Conversion Crash
      "MatMul import fails on single-rank (vector) broadcasting operands";
    bug "lotus.import_pad_negative" "Lotus" Conversion Crash
      "ConstPad import rejects negative (cropping) pads with an internal \
       error";
    bug "lotus.import_expand_rank0" "Lotus" Conversion Crash
      "Expand import mishandles rank-0 sources";
    bug "lotus.import_concat3" "Lotus" Conversion Crash
      "Concat import normalises the axis wrongly for 3+ operands";
    (* ---- TRT: closed-source strict profile *)
    bug "trt.clip_i32_attrs" "TRT" Unclassified Semantic
      "Accepts an ill-formed int32 Clip and misinterprets its attributes \
       (paper's data-type mismatch class)";
    bug "trt.sigmoid_f64_precision" "TRT" Transformation Semantic
      "Optimized f64 Sigmoid evaluates in single precision";
    bug "trt.reduce_keepdims_multi" "TRT" Transformation Crash
      "Reduce with keepdims over multiple axes crashes the builder";
    bug "trt.concat_unit_axis0" "TRT" Unclassified Crash
      "Concat on axis 0 with all-unit leading dims crashes";
    (* ---- Exporter: model-export stage (PyTorch exporter analogue) *)
    bug "export.log2_scalar_rank1" "Exporter" Conversion Semantic
      "Exporting Log2 with a scalar input marks the output as rank-1 \
       (the paper's exact by-product bug)";
    bug "export.clip_i32_silent" "Exporter" Conversion Semantic
      "Silently exports Clip at int32, unsupported by the spec";
    bug "export.squeeze_axis0_drop" "Exporter" Conversion Crash
      "Exporting Squeeze drops the axis attribute when it is 0";
  ]

let find b_id = List.find_opt (fun b -> b.b_id = b_id) catalogue

(* Per-domain state: the active set (which seeded defects currently fire)
   and, inside a [record_consulted] scope, the ids whose guards the scope
   consulted.  Domain-local so that concurrent fuzzing workers can flip
   fault sets (e.g. the semantic attribution re-runs of [Bughunt]) without
   racing each other; a freshly spawned domain starts with no active faults
   and inherits the parent's set explicitly via [active_ids]/[set_active]. *)
type state = {
  active : (string, unit) Hashtbl.t;
  mutable consulted : (string, unit) Hashtbl.t option;
}

let dls : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { active = Hashtbl.create 16; consulted = None })

let active () = (Domain.DLS.get dls).active

let set_active ids =
  let tbl = active () in
  Hashtbl.reset tbl;
  List.iter
    (fun id ->
      if find id = None then invalid_arg ("Faults.set_active: unknown bug " ^ id);
      Hashtbl.replace tbl id ())
    ids

let active_ids () =
  Hashtbl.fold (fun k () acc -> k :: acc) (active ()) [] |> List.sort compare

let activate_all () = set_active (List.map (fun b -> b.b_id) catalogue)
let deactivate_all () = Hashtbl.reset (active ())

let enabled b_id =
  let s = Domain.DLS.get dls in
  (match s.consulted with Some t -> Hashtbl.replace t b_id () | None -> ());
  Hashtbl.mem s.active b_id

(* A nested scope hands its ids on to the enclosing one, so every scope
   sees each guard consulted while it ran. *)
let record_consulted f =
  let s = Domain.DLS.get dls in
  let outer = s.consulted in
  let t = Hashtbl.create 8 in
  s.consulted <- Some t;
  let x =
    Fun.protect
      ~finally:(fun () ->
        s.consulted <- outer;
        Option.iter (fun o -> Hashtbl.iter (Hashtbl.replace o) t) outer)
      f
  in
  (x, List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) t []))

let with_bugs ids f =
  let saved = active_ids () in
  set_active ids;
  Fun.protect ~finally:(fun () -> set_active saved) f

(** Raise the crash for a seeded defect (stable message = dedup key). *)
let crash b_id detail =
  raise (Compiler_bug (Printf.sprintf "[%s] %s" b_id detail))

let category_name = function
  | Transformation -> "Transformation"
  | Conversion -> "Conversion"
  | Unclassified -> "Unclassified"

let effect_name = function Crash -> "Crash" | Semantic -> "Semantic"
