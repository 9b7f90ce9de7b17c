(* Extending NNSmith with a new operator specification.

     dune exec examples/custom_op.exe

   The paper's Listing 2 shows the Pool2d spec in a few lines of Python; here
   is the OCaml equivalent, written from scratch against the public Spec API:
   input/output types, the [requires] constraints, and the type-transfer
   function.  The custom template is then registered and immediately usable
   by the generator.  (59 of the paper's 73 specs fit in 4 lines thanks to
   meta-types; our elementwise helpers in Tpl_elementwise play that role.) *)

module E = Nnsmith_smt.Expr
module F = Nnsmith_smt.Formula
module Op = Nnsmith_ir.Op
module Sym = Nnsmith_ir.Ttype.Sym
module Dtype = Nnsmith_tensor.Dtype
module Spec = Nnsmith_ops.Spec
module Config = Nnsmith_core.Config
module Gen = Nnsmith_core.Gen
module Graph = Nnsmith_ir.Graph

(* A "GlobalPool2d"-style spec: average pooling whose kernel covers the
   whole spatial extent.  We express it as a Pool2d instance whose kernel
   size *equals* the (symbolic!) input height and width — a constraint the
   stock template never produces. *)
let global_pool2d : Spec.template =
  {
    t_name = "GlobalAvgPool";
    t_arity = 1;
    (* input type: one rank-4 float tensor, as in Listing 2 *)
    accepts = (function [ (dt, 4) ] -> Dtype.is_float dt | _ -> false);
    forward =
      (fun _rng inputs ->
        match inputs with
        | [ x ] when Sym.rank x = 4 && Dtype.is_float (Sym.dtype x) ->
            let dims = Array.of_list x.Sym.dims in
            let n = dims.(0) and c = dims.(1) and h = dims.(2) and w = dims.(3) in
            (* attributes: kernel = full spatial extent, stride 1, no pad *)
            let op =
              Op.Pool2d
                (Op.P_avg, { p_kh = h; p_kw = w; p_stride = E.one; p_padding = E.zero })
            in
            (* requires: spatial dims stay small enough to be a kernel *)
            let requires = F.[ h <= E.int 16; w <= E.int 16 ] in
            (* type transfer: output is n x c x 1 x 1 *)
            let out = Sym.make (Sym.dtype x) [ n; c; E.one; E.one ] in
            Some (Spec.instance ~requires op out)
        | _ -> None);
    backward = None;
  }

let () =
  (* Register by appending to the template list used for this config. *)
  let cfg =
    {
      Config.default with
      seed = 7;
      max_nodes = 8;
      templates = global_pool2d :: Nnsmith_ops.Registry.all;
    }
  in
  (* Generate until the new operator appears in a model. *)
  let rec find seed tries =
    if tries = 0 then failwith "custom op never selected (unlucky seeds?)"
    else
      match Gen.generate { cfg with seed } with
      | exception Gen.Gen_failure _ -> find (seed + 1) (tries - 1)
      | g ->
          let uses_global_pool =
            List.exists
              (fun (n : Graph.node) ->
                match n.Graph.op with
                | Op.Pool2d (Op.P_avg, { p_stride = 1; p_padding = 0; p_kh; _ })
                  -> (
                    match n.Graph.inputs with
                    | [ x ] -> (
                        match
                          Nnsmith_ir.Ttype.Conc.dims (Graph.find g x).Graph.out_type
                        with
                        | [ _; _; h; _ ] -> p_kh = h && h > 1
                        | _ -> false)
                    | _ -> false)
                | _ -> false)
              (Graph.nodes g)
          in
          if uses_global_pool then (seed, g) else find (seed + 1) (tries - 1)
  in
  let seed, g = find 1 4000 in
  Printf.printf
    "Custom GlobalAvgPool spec written in ~25 lines; model using it (seed %d):\n%s\n"
    seed (Graph.to_string g);
  (* The model is valid by construction, like every NNSmith model. *)
  match Nnsmith_ops.Validate.check g with
  | Ok () -> print_endline "\nmodel type checks: OK"
  | Error e -> failwith e
