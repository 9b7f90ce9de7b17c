(** NNSmith's model generator: incremental, valid-by-construction symbolic
    graph generation (Algorithm 1) with attribute binning (Algorithm 2),
    followed by concretisation against the solver's model. *)

module Expr = Nnsmith_smt.Expr
module Formula = Nnsmith_smt.Formula
module Solver = Nnsmith_smt.Solver
module Model = Nnsmith_smt.Model
module Op = Nnsmith_ir.Op
module Sym = Nnsmith_ir.Ttype.Sym
module Conc = Nnsmith_ir.Ttype.Conc
module Graph = Nnsmith_ir.Graph
module Spec = Nnsmith_ops.Spec
module Tel = Nnsmith_telemetry.Telemetry

exception Gen_failure of string

(* ------------------------------------------------------------------ *)
(* Symbolic graph under construction.                                  *)

type snode = {
  id : int;
  op : Expr.t Op.t option;  (** [None] while still a placeholder *)
  inputs : int list;
  out_type : Sym.t;
  weight_only : bool;
      (** placeholder must finalise as a weight (e.g. a Conv2d kernel) *)
}

type state = {
  cfg : Config.t;
  rng : Random.State.t;
  solver : Solver.t;
  mutable nodes : snode list;  (** reverse insertion order *)
  mutable next_id : int;
  mutable op_count : int;
}

let node_list st = List.rev st.nodes

let placeholders st =
  List.filter (fun n -> n.op = None && not n.weight_only) (node_list st)

let replace_node st id f =
  st.nodes <- List.map (fun n -> if n.id = id then f n else n) st.nodes

let numel_cap st (t : Sym.t) =
  Formula.(Sym.numel t <= Expr.int st.cfg.max_numel)

(* Fresh placeholder: symbolic dims constrained positive and capped. *)
let add_placeholder ?(weight_only = false) st (t : Sym.t) : snode =
  let n =
    {
      id = st.next_id;
      op = None;
      inputs = [];
      out_type = t;
      weight_only;
    }
  in
  st.next_id <- st.next_id + 1;
  st.nodes <- n :: st.nodes;
  Solver.assert_all st.solver (Spec.out_positive t @ [ numel_cap st t ]);
  n

let random_leaf_type st =
  let dtype = Spec.pick st.rng st.cfg.leaf_dtypes in
  let rank =
    (* rank-4 tensors unlock Conv/Pool; scalars exercise the paper's
       scalar-handling bug class *)
    match Random.State.int st.rng 10 with
    | 0 -> 0
    | 1 -> 1
    | 2 | 3 -> 2
    | 4 | 5 -> 3
    | _ -> 4
  in
  Sym.fresh ~prefix:"ph" dtype rank

let add_op_node st (inst : Spec.instance) ~inputs : snode =
  let n =
    {
      id = st.next_id;
      op = Some inst.op;
      inputs;
      out_type = inst.out_type;
      weight_only = false;
    }
  in
  st.next_id <- st.next_id + 1;
  st.nodes <- n :: st.nodes;
  st.op_count <- st.op_count + 1;
  n

(* ------------------------------------------------------------------ *)
(* Algorithm 1: forward and backward insertion.                        *)

(* Random input combination from the existing nodes (with replacement, so
   diamonds are possible). *)
let sample_combo st arity =
  let nodes = Array.of_list (List.filter (fun n -> not n.weight_only) (node_list st)) in
  if Array.length nodes = 0 then None
  else
    Some
      (List.init arity (fun _ ->
           nodes.(Random.State.int st.rng (Array.length nodes))))

(* Constraints every inserted operator must satisfy: its [requires], output
   dims >= 1 (Algorithm 1 line 4) and the element-count cap. *)
let insertion_constraints st (inst : Spec.instance) =
  inst.requires
  @ Spec.out_positive inst.out_type
  @ [ numel_cap st inst.out_type ]
  @ List.concat_map
      (fun t -> Spec.out_positive t @ [ numel_cap st t ])
      inst.extra_inputs

let forward_insert st (tpl : Spec.template) : bool =
  let rec try_combo k =
    if k = 0 then false
    else begin
      Tel.incr "gen/forward_attempts";
      match sample_combo st tpl.t_arity with
      | None -> false
      | Some combo ->
          if
            not
              (tpl.accepts
                 (List.map
                    (fun n -> (Sym.dtype n.out_type, Sym.rank n.out_type))
                    combo))
          then begin
            Tel.incr "gen/reject/signature";
            try_combo (k - 1)
          end
          else begin
            let types = List.map (fun n -> n.out_type) combo in
            match tpl.forward st.rng types with
            | None ->
                Tel.incr "gen/reject/forward_none";
                try_combo (k - 1)
            | Some inst ->
                if
                  Solver.try_add_constraints st.solver
                    (insertion_constraints st inst)
                then begin
                  Tel.incr "gen/forward_ok";
                  let extra =
                    List.map
                      (fun t -> (add_placeholder ~weight_only:true st t).id)
                      inst.extra_inputs
                  in
                  ignore
                    (add_op_node st inst
                       ~inputs:(List.map (fun n -> n.id) combo @ extra));
                  true
                end
                else begin
                  Tel.incr "gen/reject/solver";
                  try_combo (k - 1)
                end
          end
    end
  in
  try_combo st.cfg.combo_tries

(* Input positions that must finalise as weights, by operator: Conv2d's
   kernel is a parameter in PyTorch, never a model input. *)
let weight_slots : 'a Op.t -> int list = function
  | Op.Conv2d _ -> [ 1 ]
  | _ -> []

let backward_insert st (tpl : Spec.template) : bool =
  match tpl.backward with
  | None -> false
  | Some backward -> (
      match placeholders st with
      | [] -> false
      | phs -> (
          Tel.incr "gen/backward_attempts";
          let v = Spec.pick st.rng phs in
          match backward st.rng v.out_type with
          | None ->
              Tel.incr "gen/reject/backward_none";
              false
          | Some (inst, in_types) ->
              (* the instance's out dims are v's dims by construction; assert
                 the remaining validity constraints *)
              let cs =
                insertion_constraints st inst
                @ List.concat_map
                    (fun t -> Spec.out_positive t @ [ numel_cap st t ])
                    in_types
              in
              if Solver.try_add_constraints st.solver cs then begin
                Tel.incr "gen/backward_ok";
                let weight_positions = weight_slots inst.op in
                let new_inputs =
                  List.mapi
                    (fun i t ->
                      let weight_only = List.mem i weight_positions in
                      (add_placeholder ~weight_only st t).id)
                    in_types
                in
                replace_node st v.id (fun n ->
                    {
                      n with
                      op = Some inst.op;
                      inputs = new_inputs;
                      out_type = inst.out_type;
                    });
                st.op_count <- st.op_count + 1;
                true
              end
              else begin
                Tel.incr "gen/reject/solver";
                false
              end))

let insert_one st : bool =
  Tel.with_span "gen/insert_op" (fun () ->
      let rec attempt k =
        if k = 0 then false
        else begin
          let tpl = Spec.pick st.rng st.cfg.templates in
          let forward_first =
            Random.State.float st.rng 1. < st.cfg.forward_prob
          in
          let ok =
            if forward_first then
              forward_insert st tpl || backward_insert st tpl
            else backward_insert st tpl || forward_insert st tpl
          in
          ok || attempt (k - 1)
        end
      in
      attempt st.cfg.insert_tries)

(* ------------------------------------------------------------------ *)
(* Algorithm 2: attribute binning.                                     *)

let sample_from_bin rng i k =
  if i <> k then begin
    let b = float_of_int (i - 1) +. Random.State.float rng 1. in
    let t = float_of_int (i - 1) +. Random.State.float rng 1. in
    let b, t = if b <= t then (b, t) else (t, b) in
    ( int_of_float (Float.pow 2. b),
      max (int_of_float (Float.pow 2. b)) (int_of_float (Float.pow 2. t)) )
  end
  else (1 lsl (k - 1), max_int)

(* Binning specialisations (§4): padding attributes also draw a 0-bin (and,
   for ConstPad, negative bins); Slice ranges are already constrained
   relative to the input dim, so its attributes draw from small bins. *)
let specialised st op_name attr_label (alpha : Expr.t) : Formula.t list option
    =
  let rng = st.rng in
  let pad_like = String.length attr_label >= 6 &&
                 (String.sub attr_label 0 6 = "before" || String.sub attr_label 0 5 = "after") in
  let is_pad_attr =
    (op_name = "Conv2d" && attr_label = "padding")
    || ((op_name = "ConstPad" || op_name = "ReflectPad" || op_name = "ReplicatePad")
        && pad_like)
  in
  if not is_pad_attr then None
  else begin
    match Random.State.int rng 4 with
    | 0 ->
        (* the extra 0-bin *)
        Some [ Formula.(alpha = Expr.zero) ]
    | 1 when op_name = "ConstPad" ->
        (* negative bin: cropping pads *)
        let m = 1 + Random.State.int rng 4 in
        Some Formula.[ Expr.int (-m) <= alpha; alpha <= Expr.int (-1) ]
    | _ ->
        let i = 1 + Random.State.int rng 3 in
        let l, r = sample_from_bin rng i 4 in
        Some Formula.[ Expr.int l <= alpha; alpha <= Expr.int r ]
  end

(* All (op-name, attr-label, attr-expr) triples of the graph, treating
   placeholder dims as attributes as Algorithm 2 prescribes. *)
let graph_attrs st =
  List.concat_map
    (fun n ->
      match n.op with
      | Some op ->
          List.map
            (fun (label, e) -> (Op.name op, label, e))
            (Op.shape_attrs op)
      | None ->
          List.mapi
            (fun i d -> ("Placeholder", Printf.sprintf "dim%d" i, d))
            n.out_type.Sym.dims)
    (node_list st)

let attr_binning st =
  Tel.with_span "gen/binning" @@ fun () ->
  let k = st.cfg.bins in
  let cb = ref [] in
  List.iter
    (fun (op_name, label, alpha) ->
      match Expr.is_const alpha with
      | Some _ -> ()  (* nothing to diversify *)
      | None -> (
          Tel.incr "gen/binning_picks";
          match specialised st op_name label alpha with
          | Some cs -> cb := cs @ !cb
          | None ->
              let i = 1 + Random.State.int st.rng k in
              let l, r = sample_from_bin st.rng i k in
              let lower = Formula.(Expr.int l <= alpha) in
              let upper =
                if r = max_int then [] else [ Formula.(alpha <= Expr.int r) ]
              in
              cb := (lower :: upper) @ !cb))
    (graph_attrs st);
  (* while unsatisfiable, randomly drop half of the binning constraints *)
  let rec settle cs =
    if cs = [] then ignore (Solver.check st.solver)
    else if Solver.try_add_constraints st.solver cs then ()
    else begin
      Tel.incr "gen/binning_drops";
      let half =
        List.filter (fun _ -> Random.State.bool st.rng) cs
        |> fun l ->
        if List.length l < List.length cs then l
        else List.filteri (fun i _ -> i mod 2 = 0) cs
      in
      settle half
    end
  in
  settle !cb

(* ------------------------------------------------------------------ *)
(* Concretisation.                                                     *)

let finalize_leaf_kind st ~weight_only ~need_input =
  if weight_only then Op.Model_weight
  else if need_input then Op.Model_input
  else begin
    match Random.State.int st.rng 10 with
    | 0 | 1 | 2 | 3 -> Op.Model_input
    | 4 | 5 | 6 | 7 -> Op.Model_weight
    | 8 -> Op.Const_fill 1.
    | _ -> Op.Const_fill 0.
  end

(* Kahn topological sort of the symbolic nodes (backward insertion breaks
   id-ordering), then emit a concrete graph. *)
let concretize st (model : Model.t) : Graph.t =
  Tel.with_span "gen/concretize" @@ fun () ->
  let nodes = node_list st in
  let remaining = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace remaining n.id n) nodes;
  let emitted = Hashtbl.create 32 in
  let graph = ref Graph.empty in
  let eval_dim e = Model.eval_expr model e in
  let have_input = ref false in
  let n_free_placeholders =
    List.length (List.filter (fun n -> n.op = None && not n.weight_only) nodes)
  in
  let free_seen = ref 0 in
  let emit n =
    let dtype, dims = Sym.concretize model n.out_type in
    let out_type = Conc.make dtype dims in
    let op =
      match n.op with
      | Some op -> Op.map_attrs eval_dim op
      | None ->
          if not n.weight_only then incr free_seen;
          let need_input =
            (not n.weight_only) && (not !have_input)
            && !free_seen = n_free_placeholders
          in
          let kind =
            finalize_leaf_kind st ~weight_only:n.weight_only ~need_input
          in
          if kind = Op.Model_input then have_input := true;
          Op.Leaf kind
    in
    let inputs = List.map (Hashtbl.find emitted) n.inputs in
    let g, new_id = Graph.add_node !graph ~op ~inputs ~out_type in
    graph := g;
    Hashtbl.replace emitted n.id new_id;
    Hashtbl.remove remaining n.id
  in
  let rec drain () =
    if Hashtbl.length remaining > 0 then begin
      let ready =
        List.filter
          (fun n ->
            Hashtbl.mem remaining n.id
            && List.for_all (Hashtbl.mem emitted) n.inputs)
          nodes
      in
      match ready with
      | [] -> raise (Gen_failure "cycle in symbolic graph")
      | _ ->
          List.iter emit ready;
          drain ()
    end
  in
  drain ();
  !graph

(* A graph with no Model_input leaf gets its first eligible Weight upgraded;
   handled above via [need_input], but a purely weight-only graph (all
   leaves are conv kernels) could still slip through — patch it here. *)
let ensure_input g =
  if Graph.inputs g <> [] then g
  else begin
    let first_leaf =
      match Graph.leaves g with
      | l :: _ -> l.Graph.id
      | [] -> raise (Gen_failure "graph has no leaves")
    in
    Graph.map_nodes
      (fun n ->
        if n.Graph.id = first_leaf then
          { n with op = Op.Leaf Op.Model_input }
        else n)
      g
  end

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

type stats = {
  gen_ms : float;
  solver_steps : int;
  ops : int;
  nodes_total : int;
}

let generate_with_stats (cfg : Config.t) : Graph.t * stats =
  Tel.with_span "gen/generate" @@ fun () ->
  let t0 = Tel.now_ms () in
  let st =
    {
      cfg;
      rng = Random.State.make [| cfg.seed |];
      solver = Solver.create ~max_steps:cfg.solver_max_steps ();
      nodes = [];
      next_id = 0;
      op_count = 0;
    }
  in
  ignore (add_placeholder st (random_leaf_type st));
  let stalled = ref 0 in
  while st.op_count < cfg.max_nodes && !stalled < 3 do
    if insert_one st then stalled := 0 else incr stalled
  done;
  if st.op_count = 0 then raise (Gen_failure "no operator could be inserted");
  if cfg.binning then attr_binning st
  else ignore (Solver.check st.solver);
  let model =
    match Solver.model st.solver with
    | Some m -> m
    | None -> raise (Gen_failure "final constraint system unsatisfiable")
  in
  let g = ensure_input (concretize st model) in
  let gen_ms = Tel.now_ms () -. t0 in
  Tel.observe "gen/generate_ms" gen_ms;
  let stats =
    {
      gen_ms;
      solver_steps = Solver.check_steps st.solver;
      ops = st.op_count;
      nodes_total = Graph.size g;
    }
  in
  (g, stats)

let generate cfg = fst (generate_with_stats cfg)
