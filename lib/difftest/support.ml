(** Operator-support probing (§4): "we infer the set of operators supported
    by the compiler being tested by trying to compile single-operator models
    with different data types", so generation avoids Not-Implemented
    rejections.

    For each template we synthesise a minimal single-operator model per
    candidate signature and try to compile it; templates with no accepted
    signature are dropped from the generator's registry for that system. *)

module Op = Nnsmith_ir.Op
module Graph = Nnsmith_ir.Graph
module Conc = Nnsmith_ir.Ttype.Conc
module Sym = Nnsmith_ir.Ttype.Sym
module Dtype = Nnsmith_tensor.Dtype
module Spec = Nnsmith_ops.Spec
module Solver = Nnsmith_smt.Solver
module Model = Nnsmith_smt.Model

(* A single-operator probe model for one template and input signature. *)
let probe_model rng (tpl : Spec.template) (signature : (Dtype.t * int) list) :
    Graph.t option =
  if not (tpl.accepts signature) then None
  else begin
    let sym_inputs = List.map (fun (dt, r) -> Sym.fresh dt r) signature in
    match tpl.forward rng sym_inputs with
    | None -> None
    | Some inst -> (
        let constraints =
          inst.requires
          @ Spec.out_positive inst.out_type
          @ List.concat_map Spec.out_positive (sym_inputs @ inst.extra_inputs)
        in
        match Solver.solve constraints with
        | None -> None
        | Some model -> (
            let conc t =
              let dtype, dims = Sym.concretize model t in
              Conc.make dtype dims
            in
            let op = Op.map_attrs (Model.eval_expr model) inst.op in
            let g = Graph.empty in
            let g, leaf_ids =
              List.fold_left
                (fun (g, acc) t ->
                  let g, id =
                    Graph.add_node g ~op:(Op.Leaf Op.Model_input) ~inputs:[]
                      ~out_type:(conc t)
                  in
                  (g, id :: acc))
                (g, [])
                (sym_inputs @ inst.extra_inputs)
            in
            match
              Graph.add_node g ~op ~inputs:(List.rev leaf_ids)
                ~out_type:(conc inst.out_type)
            with
            | g, _ -> Some g
            | exception Invalid_argument _ -> None))
  end

let signatures_for (tpl : Spec.template) =
  List.concat_map
    (fun dt -> List.init 5 (fun r -> List.init tpl.t_arity (fun _ -> (dt, r))))
    Dtype.all
  @ (if tpl.t_arity = 3 then
       [ [ (Dtype.Bool, 2); (Dtype.F32, 2); (Dtype.F32, 2) ] ]
     else [])

(** Does the system accept at least one single-operator model for this
    template?  A compile-time exception (rejection, Not-Implemented, crash)
    counts as unsupported for that signature. *)
let template_supported (system : Systems.t) (tpl : Spec.template) : bool =
  let rng = Random.State.make [| 29 |] in
  List.exists
    (fun signature ->
      match probe_model rng tpl signature with
      | None -> false
      | Some g -> (
          let binding =
            Nnsmith_ops.Runner.random_binding (Random.State.make [| 3 |]) g
          in
          match system.compile_and_run Systems.O2 g binding with
          | _ -> true
          | exception _ -> false))
    (signatures_for tpl)

(** The template registry restricted to operators the system compiles —
    what the generator should be configured with for that system. *)
let supported_templates (system : Systems.t) : Spec.template list =
  List.filter (template_supported system) Nnsmith_ops.Registry.all

(** Names of unsupported templates, for reporting. *)
let unsupported_names (system : Systems.t) : string list =
  List.filter_map
    (fun (tpl : Spec.template) ->
      if template_supported system tpl then None else Some tpl.t_name)
    Nnsmith_ops.Registry.all
