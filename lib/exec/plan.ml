(** Compiled execution plans: per-graph forward-pass programs built once and
    reused across every search iteration, restart, and difftest probe of that
    model.

    A plan replaces the interpreter's per-iteration machinery with
    ahead-of-time decisions:

    - the topological node order becomes a dense slot array (no more
      per-iteration [Hashtbl] keyed by node id);
    - broadcast / stride / reduction index arithmetic is materialised into
      flat offset arrays per op at compile time;
    - each op gets a destination-passing kernel writing into its own
      preallocated output buffer, so steady-state passes allocate nothing
      and every slot keeps its value until the slot recomputes.

    Bit-identity with the reference interpreter is a hard invariant: every
    kernel is either a raw-array specialisation performing the interpreter's
    arithmetic in the same order (see the comment above the specialised
    kernels), delegates to the same code path {!Nnsmith_ops.Eval} uses (via
    the shared [_into] variants), or falls back to [Eval.eval] for that node.
    Ops whose declared types don't validate — and nodes whose runtime inputs
    stop matching their declared types — always take the fallback, so error
    behaviour and exotic cases match the interpreter exactly. *)

module Nd = Nnsmith_tensor.Nd
module Dtype = Nnsmith_tensor.Dtype
module Shape = Nnsmith_tensor.Shape
module Linalg = Nnsmith_tensor.Linalg
module Reduce = Nnsmith_tensor.Reduce
module Transform = Nnsmith_tensor.Transform
module Op = Nnsmith_ir.Op
module Graph = Nnsmith_ir.Graph
module Conc = Nnsmith_ir.Ttype.Conc
module Eval = Nnsmith_ops.Eval
module Runner = Nnsmith_ops.Runner
module Tel = Nnsmith_telemetry.Telemetry

type slot = {
  node : Graph.node;
  in_slots : int array;
  kernel : (Nd.t array -> Nd.t -> unit) option;
  decl_dtype : Dtype.t;
  decl_shape : Shape.t;
  buffer : Nd.t;
  ins_buf : Nd.t array;
  is_leaf : bool;
  mutable value : Nd.t;
  mutable decl_ok : bool;
  mutable valid : bool;
}

type t = {
  graph : Graph.t;
  slots : slot array;
  slot_of_id : (int, int) Hashtbl.t;
  consumers : int array array;
  outputs : (int * int) list;  (* (node id, slot) in [Graph.outputs] order *)
  visited : bool array;  (* [invalidate]'s marks *)
  changed : bool array;  (* [run_reference]'s rebound/recomputed marks *)
}

let graph p = p.graph

(* ------------------------------------------------------------------ *)
(* Kernel compilation.                                                 *)

(* [idx] turns an optional materialised index map into a read-offset
   function; [None] is the identity (source already has the output shape). *)
let idx = function
  | None -> fun i -> i
  | Some m -> fun i -> Array.unsafe_get m i

(* A shape/dtype-only stand-in for kernels that validate via functions taking
   tensors ([Linalg.conv2d_dims]); never read element-wise. *)
let phantom dtype shape = { Nd.dtype; shape; data = Nd.F Nd.empty_f }

(* Unboxed-buffer accessors for the raw kernels below; soundness of the
   unsafe variants is argued in the comment under "Specialised raw-array
   float kernels". *)
let fget : Nd.farray -> int -> float = Bigarray.Array1.unsafe_get
let fset : Nd.farray -> int -> float -> unit = Bigarray.Array1.unsafe_set

(* Specialised raw-array float kernels.

   Every float tensor stores values already normalised for its dtype (each
   write site rounds F32 through {!Dtype.round_f32}), so reading
   [Nd.float_data] directly yields the same floats as [Nd.to_float], and
   writing [Dtype.round_f32] (or raw, for F64) produces the same bits as
   [Nd.set_f].  The loops below therefore drop only the per-element
   representation dispatch and bounds checks of the generic [_into] kernels;
   the arithmetic, iteration order and normalisation are identical, which the
   bit-identity tests and the bench digest verify.  [unsafe_get]/[unsafe_set]
   are sound because kernels only run once [decl_ok] has validated every
   input against its declared dtype and shape, and all indices are derived
   from those shapes at compile time. *)

(* Copy-with-index-map for the movement ops (transpose / slice / pad /
   expand / tile); source values are already normalised so a raw copy
   matches [Transform.gather_into] bit-for-bit.  Non-float dtypes keep the
   generic path. *)
let gather_kernel dt map ~fill =
  if Dtype.is_float dt then begin
    let fill = Dtype.normalize_float dt fill in
    let nm = Array.length map in
    fun (ib : Nd.t array) dst ->
      let x = Nd.float_data ib.(0) and o = Nd.float_data dst in
      for i = 0 to nm - 1 do
        let j = Array.unsafe_get map i in
        fset o i (if j >= 0 then fget x j else fill)
      done
  end
  else fun ib dst -> Transform.gather_into ib.(0) ~map ~fill ~dst

let compile_kernel (op : int Op.t) (ins : (Dtype.t * Shape.t) array)
    (od : Dtype.t) (os : Shape.t) : (Nd.t array -> Nd.t -> unit) option =
  let n = Shape.numel os in
  let arity k = if Array.length ins <> k then raise Exit in
  let map_of k = Nd.index_map ~src:(snd ins.(k)) ~dst:os in
  let same_shape k = Shape.equal (snd ins.(k)) os in
  let broadcast2_is_out () =
    match Shape.broadcast (snd ins.(0)) (snd ins.(1)) with
    | Some s -> Shape.equal s os
    | None -> false
  in
  match op with
  | Op.Leaf _ -> None
  | Op.Unary u ->
      arity 1;
      let xd = fst ins.(0) in
      if not (same_shape 0) then None
      else if Dtype.is_float xd then
        if not (Dtype.equal od xd) then None
        else
          let f = Eval.unary_float_fn u in
          let f64 = Dtype.equal od Dtype.F64 in
          Some
            (fun ib dst ->
              let x = Nd.float_data ib.(0) and o = Nd.float_data dst in
              if f64 then
                for i = 0 to n - 1 do
                  fset o i (f (fget x i))
                done
              else
                for i = 0 to n - 1 do
                  fset o i (Dtype.round_f32 (f (fget x i)))
                done)
      else (
        match Eval.unary_int_fn u with
        | Some f when Dtype.is_int xd && Dtype.equal od xd ->
            Some
              (fun ib dst ->
                let x = ib.(0) in
                for i = 0 to n - 1 do
                  Nd.set_i dst i (f (Nd.to_int x i))
                done)
        | _ -> None)
  | Op.Binary b ->
      arity 2;
      let xd = fst ins.(0) in
      if not (broadcast2_is_out ()) then None
      else if Dtype.is_float xd then
        if not (Dtype.equal od xd) then None
        else
          let f = Eval.binary_float_fn b in
          let f64 = Dtype.equal od Dtype.F64 in
          let reader = function
            | None -> fun (x : Nd.farray) i -> fget x i
            | Some m -> fun (x : Nd.farray) i -> fget x (Array.unsafe_get m i)
          in
          let ga = reader (map_of 0) and gb = reader (map_of 1) in
          Some
            (fun ib dst ->
              let x = Nd.float_data ib.(0)
              and y = Nd.float_data ib.(1)
              and o = Nd.float_data dst in
              if f64 then
                for i = 0 to n - 1 do
                  fset o i (f (ga x i) (gb y i))
                done
              else
                for i = 0 to n - 1 do
                  fset o i (Dtype.round_f32 (f (ga x i) (gb y i)))
                done)
      else (
        match Eval.binary_int_fn b with
        | Some f when Dtype.is_int xd && Dtype.equal od xd ->
            let ia = idx (map_of 0) and ib_ = idx (map_of 1) in
            Some
              (fun ib dst ->
                let x = ib.(0) and y = ib.(1) in
                for i = 0 to n - 1 do
                  Nd.set_i dst i (f (Nd.to_int x (ia i)) (Nd.to_int y (ib_ i)))
                done)
        | _ -> None)
  | Op.Compare c ->
      arity 2;
      let f =
        match c with
        | Op.Equal -> ( = )
        | Op.Greater -> ( > )
        | Op.Less -> ( < )
      in
      if (not (broadcast2_is_out ())) || od <> Dtype.Bool then None
      else
        let ia = idx (map_of 0) and ib_ = idx (map_of 1) in
        Some
          (fun ib dst ->
            let x = ib.(0) and y = ib.(1) in
            for i = 0 to n - 1 do
              Nd.set_b dst i (f (Nd.to_float x (ia i)) (Nd.to_float y (ib_ i)))
            done)
  | Op.Logical l ->
      arity 2;
      let f =
        match l with
        | Op.L_and -> ( && )
        | Op.L_or -> ( || )
        | Op.L_xor -> ( <> )
      in
      if
        (not (broadcast2_is_out ()))
        || fst ins.(0) <> Dtype.Bool
        || fst ins.(1) <> Dtype.Bool
        || od <> Dtype.Bool
      then None
      else
        let ia = idx (map_of 0) and ib_ = idx (map_of 1) in
        Some
          (fun ib dst ->
            let x = ib.(0) and y = ib.(1) in
            for i = 0 to n - 1 do
              Nd.set_b dst i (f (Nd.get_b x (ia i)) (Nd.get_b y (ib_ i)))
            done)
  | Op.Not ->
      arity 1;
      if (not (same_shape 0)) || fst ins.(0) <> Dtype.Bool || od <> Dtype.Bool
      then None
      else
        Some
          (fun ib dst ->
            let x = ib.(0) in
            for i = 0 to n - 1 do
              Nd.set_b dst i (not (Nd.get_b x i))
            done)
  | Op.Clip { c_lo; c_hi } ->
      arity 1;
      if
        (not (same_shape 0))
        || (not (Dtype.is_float (fst ins.(0))))
        || not (Dtype.equal od (fst ins.(0)))
      then None
      else
        let f64 = Dtype.equal od Dtype.F64 in
        Some
          (fun ib dst ->
            let x = Nd.float_data ib.(0) and o = Nd.float_data dst in
            if f64 then
              for i = 0 to n - 1 do
                fset o i (Float.min c_hi (Float.max c_lo (fget x i)))
              done
            else
              for i = 0 to n - 1 do
                fset o i
                  (Dtype.round_f32 (Float.min c_hi (Float.max c_lo (fget x i))))
              done)
  | Op.Leaky_relu { alpha } ->
      arity 1;
      if
        (not (same_shape 0))
        || (not (Dtype.is_float (fst ins.(0))))
        || not (Dtype.equal od (fst ins.(0)))
      then None
      else
        let f64 = Dtype.equal od Dtype.F64 in
        Some
          (fun ib dst ->
            let x = Nd.float_data ib.(0) and o = Nd.float_data dst in
            if f64 then
              for i = 0 to n - 1 do
                let v = fget x i in
                fset o i (if v >= 0. then v else alpha *. v)
              done
            else
              for i = 0 to n - 1 do
                let v = fget x i in
                fset o i (Dtype.round_f32 (if v >= 0. then v else alpha *. v))
              done)
  | Op.Cast target ->
      arity 1;
      if (not (same_shape 0)) || not (Dtype.equal od target) then None
      else begin
        match target with
        | Dtype.F32 | F64 when Dtype.is_float (fst ins.(0)) ->
            if Dtype.equal target Dtype.F64 then
              (* normalisation is the identity for F64, and F32 sources are
                 already rounded: a straight copy matches [map_into Fun.id] *)
              Some
                (fun ib dst ->
                  let x = Nd.float_data ib.(0) and o = Nd.float_data dst in
                  Bigarray.Array1.blit x o)
            else
              Some
                (fun ib dst ->
                  let x = Nd.float_data ib.(0) and o = Nd.float_data dst in
                  for i = 0 to n - 1 do
                    fset o i (Dtype.round_f32 (fget x i))
                  done)
        | Dtype.F32 | F64 -> Some (fun ib dst -> Nd.map_into Fun.id ib.(0) ~dst)
        | I32 | I64 ->
            Some
              (fun ib dst ->
                let x = ib.(0) in
                for i = 0 to n - 1 do
                  Nd.set_i dst i (Nd.to_int x i)
                done)
        | Bool ->
            if fst ins.(0) = Dtype.Bool then
              Some (fun ib dst -> Nd.blit_into ~src:ib.(0) ~dst)
            else
              Some
                (fun ib dst ->
                  let x = ib.(0) in
                  for i = 0 to n - 1 do
                    Nd.set_b dst i (Nd.to_float x i <> 0.)
                  done)
      end
  | Op.Softmax _ | Op.Arg_max _ | Op.Arg_min _ | Op.Gather _ ->
      (* multi-pass or runtime-value-dependent: keep the interpreter path *)
      None
  | Op.Reduce (r, { r_axes; r_keepdims }) ->
      arity 1;
      let xd, xs = ins.(0) in
      if (not (Dtype.is_float xd)) || not (Dtype.equal od xd) then None
      else
        let rp = Reduce.plan ~axes:r_axes ~keepdims:r_keepdims xs in
        if not (Shape.equal (Reduce.out_shape rp) os) then None
        else
          let into =
            match r with
            | Op.R_sum -> Reduce.sum_into
            | R_mean -> Reduce.mean_into
            | R_max -> Reduce.max_into
            | R_min -> Reduce.min_into
            | R_prod -> Reduce.prod_into
          in
          Some (fun ib dst -> into rp ib.(0) ~dst)
  | Op.Mat_mul ->
      arity 2;
      let xd, sa = ins.(0) and yd, sb = ins.(1) in
      let ra = Array.length sa and rb = Array.length sb in
      if
        (not (Dtype.is_float xd))
        || (not (Dtype.is_float yd))
        || ra < 2 || rb < 2
        || not (Dtype.equal od xd)
      then None
      else
        let m = sa.(ra - 2) and k = sa.(ra - 1) in
        let k' = sb.(rb - 2) and nn = sb.(rb - 1) in
        if k <> k' then None
        else begin
          match
            Shape.broadcast (Array.sub sa 0 (ra - 2)) (Array.sub sb 0 (rb - 2))
          with
          | Some batch when Shape.equal (Array.append batch [| m; nn |]) os ->
              Some (fun ib dst -> Linalg.matmul_into ~dst ib.(0) ib.(1))
          | _ -> None
        end
  | Op.Conv2d { stride; padding; _ } ->
      arity 2;
      let xd, xs = ins.(0) and wd, ws = ins.(1) in
      let stride = (stride, stride) and padding = (padding, padding) in
      let nb, _, _, _, f, _, _, oh, ow =
        Linalg.conv2d_dims ~stride ~padding (phantom xd xs) (phantom wd ws)
      in
      if (not (Shape.equal [| nb; f; oh; ow |] os)) || not (Dtype.equal od xd)
      then None
      else
        Some
          (fun ib dst ->
            Linalg.conv2d_into ~stride ~padding ~dst ib.(0) ib.(1))
  | Op.Pool2d (kind, { p_kh; p_kw; p_stride; p_padding }) ->
      arity 1;
      let xd, xs = ins.(0) in
      let kind =
        match kind with Op.P_max -> Linalg.Max_pool | P_avg -> Linalg.Avg_pool
      in
      let kernel = (p_kh, p_kw)
      and stride = (p_stride, p_stride)
      and padding = (p_padding, p_padding) in
      let nb, c, _, _, oh, ow =
        Linalg.pool2d_dims ~kernel ~stride ~padding (phantom xd xs)
      in
      if (not (Shape.equal [| nb; c; oh; ow |] os)) || not (Dtype.equal od xd)
      then None
      else
        Some
          (fun ib dst ->
            Linalg.pool2d_into ~kind ~kernel ~stride ~padding ~dst ib.(0))
  | Op.Reshape dims ->
      arity 1;
      let target = Array.of_list dims in
      if
        Shape.numel (snd ins.(0)) <> Shape.numel target
        || (not (Shape.equal target os))
        || not (Dtype.equal od (fst ins.(0)))
      then None
      else Some (fun ib dst -> Nd.copy_data_into ~src:ib.(0) ~dst)
  | Op.Flatten { f_axis } ->
      arity 1;
      let xs = snd ins.(0) in
      let r = Array.length xs in
      if f_axis < 0 || f_axis > r then None
      else begin
        let lead = ref 1 and tail = ref 1 in
        Array.iteri
          (fun k d -> if k < f_axis then lead := !lead * d else tail := !tail * d)
          xs;
        if
          (not (Shape.equal [| !lead; !tail |] os))
          || not (Dtype.equal od (fst ins.(0)))
        then None
        else Some (fun ib dst -> Nd.copy_data_into ~src:ib.(0) ~dst)
      end
  | Op.Squeeze { sq_axis } ->
      arity 1;
      let xs = snd ins.(0) in
      let r = Array.length xs in
      if sq_axis < 0 || sq_axis >= r || xs.(sq_axis) <> 1 then None
      else begin
        let out =
          Array.of_list
            (List.filteri (fun k _ -> k <> sq_axis) (Array.to_list xs))
        in
        if (not (Shape.equal out os)) || not (Dtype.equal od (fst ins.(0)))
        then None
        else Some (fun ib dst -> Nd.copy_data_into ~src:ib.(0) ~dst)
      end
  | Op.Unsqueeze { usq_axis } ->
      arity 1;
      let xs = snd ins.(0) in
      let r = Array.length xs in
      if usq_axis < 0 || usq_axis > r then None
      else begin
        let out =
          Array.init (r + 1) (fun k ->
              if k < usq_axis then xs.(k)
              else if k = usq_axis then 1
              else xs.(k - 1))
        in
        if (not (Shape.equal out os)) || not (Dtype.equal od (fst ins.(0)))
        then None
        else Some (fun ib dst -> Nd.copy_data_into ~src:ib.(0) ~dst)
      end
  | Op.Transpose perm ->
      arity 1;
      let out, map = Transform.transpose_map (snd ins.(0)) perm in
      if (not (Shape.equal out os)) || not (Dtype.equal od (fst ins.(0))) then
        None
      else Some (gather_kernel od map ~fill:0.)
  | Op.Slice { s_axis; s_start; s_stop } ->
      arity 1;
      let xs = snd ins.(0) in
      let r = Array.length xs in
      if s_axis < 0 || s_axis >= r then None
      else begin
        let starts = Array.make r 0
        and stops = Array.copy xs
        and steps = Array.make r 1 in
        starts.(s_axis) <- s_start;
        stops.(s_axis) <- s_stop;
        let out, map = Transform.slice_map xs ~starts ~stops ~steps in
        if (not (Shape.equal out os)) || not (Dtype.equal od (fst ins.(0)))
        then None
        else Some (gather_kernel od map ~fill:0.)
      end
  | Op.Pad (mode, { pad_before; pad_after }) ->
      arity 1;
      let mode =
        match mode with
        | Op.Pad_constant v -> Transform.Constant v
        | Op.Pad_reflect -> Transform.Reflect
        | Op.Pad_replicate -> Transform.Replicate
      in
      let out, map, fill =
        Transform.pad_map (snd ins.(0))
          ~before:(Array.of_list pad_before)
          ~after:(Array.of_list pad_after)
          ~mode
      in
      if (not (Shape.equal out os)) || not (Dtype.equal od (fst ins.(0))) then
        None
      else Some (gather_kernel od map ~fill)
  | Op.Concat { cat_axis; _ } ->
      if Array.length ins = 0 then None
      else begin
        let d0 = fst ins.(0) in
        if
          (not (Array.for_all (fun (d, _) -> Dtype.equal d d0) ins))
          || not (Dtype.equal od d0)
        then None
        else
          let out, outer, widths =
            Transform.concat_spec ~axis:cat_axis
              (Array.to_list (Array.map snd ins))
          in
          if not (Shape.equal out os) then None
          else Some (fun ib dst -> Transform.concat_into ~outer ~widths ib ~dst)
      end
  | Op.Where ->
      arity 3;
      let cd, cs = ins.(0) and td, ts = ins.(1) and fd, fs = ins.(2) in
      if cd <> Dtype.Bool || not (Dtype.equal td fd) then None
      else begin
        match Shape.broadcast_many [ cs; ts; fs ] with
        | Some s when Shape.equal s os && Dtype.equal od td ->
            let ic = idx (map_of 0)
            and ia = idx (map_of 1)
            and ib_ = idx (map_of 2) in
            (match td with
            | Dtype.F32 | F64 ->
                Some
                  (fun ib dst ->
                    let c = ib.(0) and a = ib.(1) and b = ib.(2) in
                    for i = 0 to n - 1 do
                      Nd.set_f dst i
                        (if Nd.get_b c (ic i) then Nd.to_float a (ia i)
                         else Nd.to_float b (ib_ i))
                    done)
            | I32 | I64 ->
                Some
                  (fun ib dst ->
                    let c = ib.(0) and a = ib.(1) and b = ib.(2) in
                    for i = 0 to n - 1 do
                      Nd.set_i dst i
                        (if Nd.get_b c (ic i) then Nd.to_int a (ia i)
                         else Nd.to_int b (ib_ i))
                    done)
            | Bool ->
                Some
                  (fun ib dst ->
                    let c = ib.(0) and a = ib.(1) and b = ib.(2) in
                    for i = 0 to n - 1 do
                      Nd.set_b dst i
                        (if Nd.get_b c (ic i) then Nd.get_b a (ia i)
                         else Nd.get_b b (ib_ i))
                    done))
        | _ -> None
      end
  | Op.Expand target ->
      arity 1;
      let tgt = Array.of_list target in
      if
        (not (Shape.can_broadcast_to ~src:(snd ins.(0)) ~dst:tgt))
        || (not (Shape.equal tgt os))
        || not (Dtype.equal od (fst ins.(0)))
      then None
      else begin
        match Nd.index_map ~src:(snd ins.(0)) ~dst:tgt with
        | None -> Some (fun ib dst -> Nd.copy_data_into ~src:ib.(0) ~dst)
        | Some map -> Some (gather_kernel od map ~fill:0.)
      end
  | Op.Tile reps ->
      arity 1;
      let out, map = Transform.tile_map (snd ins.(0)) reps in
      if (not (Shape.equal out os)) || not (Dtype.equal od (fst ins.(0))) then
        None
      else Some (gather_kernel od map ~fill:0.)

let compile_kernel op ins od os =
  (* any compile-time surprise means "use the interpreter for this node" —
     that path reproduces the interpreter's behaviour (and errors) exactly *)
  match compile_kernel op ins od os with
  | k -> k
  | exception _ -> None

(* ------------------------------------------------------------------ *)
(* Plan construction.                                                  *)

let dummy = Nd.scalar_f Dtype.F64 0.

let build g =
  Tel.incr "exec/plan_compile";
  let nodes = Array.of_list (Graph.nodes g) in
  let nslots = Array.length nodes in
  let slot_of_id = Hashtbl.create (2 * max 1 nslots) in
  Array.iteri (fun i (n : Graph.node) -> Hashtbl.replace slot_of_id n.id i) nodes;
  let in_slots =
    Array.map
      (fun (n : Graph.node) ->
        Array.of_list (List.map (Hashtbl.find slot_of_id) n.inputs))
      nodes
  in
  let consumers_l = Array.make nslots [] in
  Array.iteri
    (fun i ins -> Array.iter (fun j -> consumers_l.(j) <- i :: consumers_l.(j)) ins)
    in_slots;
  let consumers = Array.map (fun l -> Array.of_list (List.rev l)) consumers_l in
  let fallbacks = ref 0 in
  let slots =
    Array.mapi
      (fun i (node : Graph.node) ->
        let decl_dtype = Conc.dtype node.out_type in
        let decl_shape = Conc.shape node.out_type in
        let is_leaf = match node.op with Op.Leaf _ -> true | _ -> false in
        let kernel =
          if is_leaf then None
          else
            compile_kernel node.op
              (Array.map
                 (fun j ->
                   let t = nodes.(j).Graph.out_type in
                   (Conc.dtype t, Conc.shape t))
                 in_slots.(i))
              decl_dtype decl_shape
        in
        if (not is_leaf) && kernel = None then incr fallbacks;
        let buffer = if is_leaf then dummy else Nd.create decl_dtype decl_shape in
        {
          node;
          in_slots = in_slots.(i);
          kernel;
          decl_dtype;
          decl_shape;
          buffer;
          ins_buf = Array.make (Array.length in_slots.(i)) dummy;
          is_leaf;
          value = buffer;
          decl_ok = not is_leaf;
          valid = false;
        })
      nodes
  in
  Tel.incr ~by:!fallbacks "exec/plan_fallback_nodes";
  {
    graph = g;
    slots;
    slot_of_id;
    consumers;
    outputs =
      List.map
        (fun (n : Graph.node) -> (n.Graph.id, Hashtbl.find slot_of_id n.Graph.id))
        (Graph.outputs g);
    visited = Array.make nslots false;
    changed = Array.make nslots false;
  }

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)

let inputs_decl_ok p s =
  let ok = ref true in
  Array.iter (fun j -> if not p.slots.(j).decl_ok then ok := false) s.in_slots;
  !ok

let exec_node p i =
  let s = p.slots.(i) in
  match s.kernel with
  | Some k when inputs_decl_ok p s ->
      let ib = s.ins_buf in
      Array.iteri (fun j sj -> ib.(j) <- p.slots.(sj).value) s.in_slots;
      if not (s.value == s.buffer) then begin
        s.value <- s.buffer;
        s.decl_ok <- true
      end;
      k ib s.buffer
  | _ ->
      let ins = List.map (fun sj -> p.slots.(sj).value) (Array.to_list s.in_slots) in
      let v = Eval.eval s.node.Graph.op ins in
      s.value <- v;
      s.decl_ok <-
        Dtype.equal (Nd.dtype v) s.decl_dtype
        && Shape.equal (Nd.shape v) s.decl_shape

let bind_leaf s v =
  s.value <- v;
  s.decl_ok <-
    Dtype.equal (Nd.dtype v) s.decl_dtype && Shape.equal (Nd.shape v) s.decl_shape

let set_leaf p id v =
  let s = p.slots.(Hashtbl.find p.slot_of_id id) in
  bind_leaf s v;
  s.valid <- false

let leaf_value p id = p.slots.(Hashtbl.find p.slot_of_id id).value
let slot_count p = Array.length p.slots
let slot_of p id = Hashtbl.find p.slot_of_id id
let slot_node p i = p.slots.(i).node
let slot_inputs p i = p.slots.(i).in_slots
let slot_value p i = p.slots.(i).value

let invalidate_all p =
  Array.iter (fun s -> s.valid <- false) p.slots

let invalidate p ids =
  Array.fill p.visited 0 (Array.length p.visited) false;
  let rec go i =
    if not p.visited.(i) then begin
      p.visited.(i) <- true;
      p.slots.(i).valid <- false;
      Array.iter go p.consumers.(i)
    end
  in
  List.iter
    (fun id ->
      match Hashtbl.find_opt p.slot_of_id id with Some i -> go i | None -> ())
    ids

let forward_until_bad p =
  let computed = ref 0 in
  let result = ref None in
  (try
     for i = 0 to Array.length p.slots - 1 do
       let s = p.slots.(i) in
       if not s.valid then begin
         if not s.is_leaf then begin
           exec_node p i;
           incr computed
         end;
         s.valid <- true;
         if Nd.has_bad s.value then begin
           s.valid <- false;
           let ins =
             List.map
               (fun sj -> p.slots.(sj).value)
               (Array.to_list s.in_slots)
           in
           result := Some (s.node, ins);
           raise Exit
         end
       end
     done
   with Exit -> ());
  (* one batched bump per pass, not per node: dirty-set recomputes are a
     gated deterministic work counter (see Nnsmith_bench.Metrics) *)
  if !computed > 0 then Tel.incr ~by:!computed "exec/dirty_recomputes";
  (!result, !computed)

(* The binding's tensor for a leaf: the first occurrence of its id wins, as
   in [Runner.run]. *)
let rec bound (id : int) = function
  | [] -> None
  | (j, v) :: rest -> if j = id then Some v else bound id rest

(* Incremental reference pass.  Both passes keep one invariant: a valid
   slot holds the value its inputs determine, and that value is finite.  So
   a leaf whose slot is valid and already holds the binding's very tensor
   is unchanged; an op slot recomputes when it is invalid or one of its
   inputs was rebound or recomputed in this pass; every other slot keeps
   its value, and the any-NaN/Inf flag only needs the slots this pass
   touched.  Physical equality is sound because no tensor a plan holds is
   written in place except by the search, which invalidates what it
   writes, and the compilers under test never write into their inputs. *)
let run_reference p binding =
  let slots = p.slots and changed = p.changed in
  let any_bad = ref false and kernel_runs = ref 0 in
  (try
     for i = 0 to Array.length slots - 1 do
       let s = slots.(i) in
       let touched =
         match s.node.Graph.op with
         | Op.Leaf kind ->
             let id = s.node.Graph.id in
             let v =
               match (bound id binding, kind) with
               | Some t, _ -> t
               | None, Op.Const_fill c ->
                   Runner.tensor_of_leaf
                     (Random.State.make [| 0 |])
                     (Op.Const_fill c) s.node.Graph.out_type ~lo:0. ~hi:0.
               | None, (Op.Model_input | Op.Model_weight) ->
                   raise (Runner.Missing_leaf id)
             in
             if s.valid && v == s.value then false
             else begin
               bind_leaf s v;
               true
             end
         | _ ->
             if s.valid && not (Array.exists (fun j -> changed.(j)) s.in_slots)
             then false
             else begin
               exec_node p i;
               incr kernel_runs;
               true
             end
       in
       changed.(i) <- touched;
       if touched then begin
         let bad = Nd.has_bad s.value in
         s.valid <- not bad;
         if bad then any_bad := true
       end
     done
   with e ->
     (* slots after the raise were never reached: trust none of them *)
     invalidate_all p;
     raise e);
  if !kernel_runs > 0 then Tel.incr ~by:!kernel_runs "exec/kernel_runs";
  (List.map (fun (id, j) -> (id, slots.(j).value)) p.outputs, !any_bad)

(* ------------------------------------------------------------------ *)
(* Per-domain plan cache.                                              *)

(* The plan of the most recent graph, per domain, looked up by physical
   equality: a campaign test runs its search, its references, its
   attribution re-runs and its reduction probes on one graph value at a
   time, so one slot serves them all. *)
let cache : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let cohort_clear () = Domain.DLS.get cache := None

let for_graph g =
  let cached = Domain.DLS.get cache in
  match !cached with
  | Some p when p.graph == g ->
      Tel.incr "exec/plan_hit";
      p
  | _ ->
      let p = build g in
      cached := Some p;
      p
