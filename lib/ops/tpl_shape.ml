(** Templates for shape-manipulating operators: Reshape, Flatten, Transpose,
    Squeeze/Unsqueeze, Slice, the three Pad modes, Concat and Expand
    (BroadcastTo).  These are exactly the non-shape-preserving operators
    prior work (LEMON, GraphFuzzer) restricts or avoids. *)

module Expr = Nnsmith_smt.Expr
module Formula = Nnsmith_smt.Formula
module Dtype = Nnsmith_tensor.Dtype
module Op = Nnsmith_ir.Op
module Sym = Nnsmith_ir.Ttype.Sym
open Spec

let reshape_tpl =
  {
    t_name = "Reshape";
    t_arity = 1;
    accepts = (function [ _ ] -> true | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ x ] ->
            let out_rank = Shapegen.random_rank ~min:1 rng in
            let out_dims = fresh_dims rng ~prefix:"rs" out_rank in
            let requires =
              Formula.(Expr.product out_dims = Sym.numel x)
              :: dims_positive out_dims
            in
            Some
              (instance ~requires (Op.Reshape out_dims)
                 (Sym.make (Sym.dtype x) out_dims))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          let in_rank = Shapegen.random_rank ~min:0 rng in
          let in_dims = fresh_dims rng ~prefix:"rsb" in_rank in
          let requires =
            Formula.(Expr.product in_dims = Expr.product v.Sym.dims)
            :: dims_positive in_dims
          in
          Some
            ( instance ~requires (Op.Reshape v.Sym.dims)
                (Sym.make (Sym.dtype v) v.Sym.dims),
              [ Sym.make (Sym.dtype v) in_dims ] ));
  }

let flatten_tpl =
  {
    t_name = "Flatten";
    t_arity = 1;
    accepts = (function [ (_, r) ] -> r >= 1 | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ x ] when Sym.rank x >= 1 ->
            let axis = Random.State.int rng (Sym.rank x + 1) in
            let lead = List.filteri (fun i _ -> i < axis) x.Sym.dims
            and tail = List.filteri (fun i _ -> i >= axis) x.Sym.dims in
            let out_dims = [ Expr.product lead; Expr.product tail ] in
            Some
              (instance (Op.Flatten { f_axis = axis })
                 (Sym.make (Sym.dtype x) out_dims))
        | _ -> None);
    backward = None;
  }

let transpose_tpl =
  {
    t_name = "Transpose";
    t_arity = 1;
    accepts = (function [ (_, r) ] -> r >= 2 | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ x ] when Sym.rank x >= 2 ->
            let perm = Shapegen.random_perm rng (Sym.rank x) in
            let dims = Array.of_list x.Sym.dims in
            let out_dims = Array.to_list (Array.map (fun p -> dims.(p)) perm) in
            Some
              (instance (Op.Transpose perm) (Sym.make (Sym.dtype x) out_dims))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          if Sym.rank v < 2 then None
          else begin
            let r = Sym.rank v in
            let perm = Shapegen.random_perm rng r in
            let out_arr = Array.of_list v.Sym.dims in
            (* input dims such that input.(perm.(k)) = v.(k) *)
            let in_dims = Array.make r Expr.one in
            Array.iteri (fun k p -> in_dims.(p) <- out_arr.(k)) perm;
            Some
              ( instance (Op.Transpose perm) (Sym.make (Sym.dtype v) v.Sym.dims),
                [ Sym.make (Sym.dtype v) (Array.to_list in_dims) ] )
          end);
  }

let squeeze_tpl =
  {
    t_name = "Squeeze";
    t_arity = 1;
    accepts = (function [ (_, r) ] -> r >= 1 | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ x ] when Sym.rank x >= 1 ->
            let axis = Shapegen.random_axis rng (Sym.rank x) in
            let requires = [ Formula.(List.nth x.Sym.dims axis = Expr.one) ] in
            let out_dims = List.filteri (fun i _ -> i <> axis) x.Sym.dims in
            Some
              (instance ~requires (Op.Squeeze { sq_axis = axis })
                 (Sym.make (Sym.dtype x) out_dims))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          if Sym.rank v >= Shapegen.max_rank then None
          else begin
            let axis = Random.State.int rng (Sym.rank v + 1) in
            let in_dims = Tpl_nn.insert_at v.Sym.dims axis Expr.one in
            Some
              ( instance (Op.Squeeze { sq_axis = axis })
                  (Sym.make (Sym.dtype v) v.Sym.dims),
                [ Sym.make (Sym.dtype v) in_dims ] )
          end);
  }

let unsqueeze_tpl =
  {
    t_name = "Unsqueeze";
    t_arity = 1;
    accepts = (function [ (_, r) ] -> r < Shapegen.max_rank | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ x ] when Sym.rank x < Shapegen.max_rank ->
            let axis = Random.State.int rng (Sym.rank x + 1) in
            let out_dims = Tpl_nn.insert_at x.Sym.dims axis Expr.one in
            Some
              (instance (Op.Unsqueeze { usq_axis = axis })
                 (Sym.make (Sym.dtype x) out_dims))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          let r = Sym.rank v in
          if r < 1 then None
          else begin
            let axis = Shapegen.random_axis rng r in
            let requires = [ Formula.(List.nth v.Sym.dims axis = Expr.one) ] in
            let in_dims = List.filteri (fun i _ -> i <> axis) v.Sym.dims in
            Some
              ( instance ~requires (Op.Unsqueeze { usq_axis = axis })
                  (Sym.make (Sym.dtype v) v.Sym.dims),
                [ Sym.make (Sym.dtype v) in_dims ] )
          end);
  }

let slice_tpl =
  {
    t_name = "Slice";
    t_arity = 1;
    accepts = (function [ (_, r) ] -> r >= 1 | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ x ] when Sym.rank x >= 1 ->
            let axis = Shapegen.random_axis rng (Sym.rank x) in
            let d = List.nth x.Sym.dims axis in
            let start = Expr.fresh ~lo:0 "sl_start"
            and stop = Expr.fresh ~lo:1 "sl_stop" in
            let requires =
              Formula.[ Expr.zero <= start; start < stop; stop <= d ]
            in
            let out_dims =
              List.mapi
                (fun i di -> if i = axis then Expr.(stop - start) else di)
                x.Sym.dims
            in
            Some
              (instance ~requires
                 (Op.Slice { s_axis = axis; s_start = start; s_stop = stop })
                 (Sym.make (Sym.dtype x) out_dims))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          if Sym.rank v < 1 then None
          else begin
            let axis = Shapegen.random_axis rng (Sym.rank v) in
            let v_d = List.nth v.Sym.dims axis in
            let start = Expr.fresh ~lo:0 "sl_start" in
            let d_in = Expr.fresh "sl_din" in
            let stop = Expr.(start + v_d) in
            let requires = Formula.[ Expr.zero <= start; stop <= d_in ] in
            let in_dims =
              List.mapi (fun i di -> if i = axis then d_in else di) v.Sym.dims
            in
            Some
              ( instance ~requires
                  (Op.Slice { s_axis = axis; s_start = start; s_stop = stop })
                  (Sym.make (Sym.dtype v) v.Sym.dims),
                [ Sym.make (Sym.dtype v) in_dims ] )
          end);
  }

(* Pad: up to two randomly chosen axes get symbolic amounts; constant mode
   additionally allows negative (cropping) amounts, matching the paper's
   binning specialisation for padding attributes. *)
let pad_tpl (mode : Op.pad_mode) =
  let allow_negative = match mode with Op.Pad_constant _ -> true | _ -> false in
  let fresh_pad name =
    if allow_negative then Expr.fresh ~lo:(-16) name else Expr.fresh ~lo:0 name
  in
  let mk_mode rng =
    match mode with
    | Op.Pad_constant _ -> Op.Pad_constant (Random.State.float rng 2. -. 1.)
    | m -> m
  in
  {
    t_name = Op.pad_mode_name mode;
    t_arity = 1;
    accepts =
      (function [ (dt, r) ] -> Dtype.is_float dt && r >= 1 | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ x ] when Dtype.is_float (Sym.dtype x) && Sym.rank x >= 1 ->
            let r = Sym.rank x in
            let padded_axes =
              [ Shapegen.random_axis rng r; Shapegen.random_axis rng r ]
              |> List.sort_uniq compare
            in
            let mk_amounts tag =
              List.init r (fun i ->
                  if List.mem i padded_axes then
                    fresh_pad (Printf.sprintf "pad_%s%d" tag i)
                  else Expr.zero)
            in
            let before = mk_amounts "b" and after = mk_amounts "a" in
            let out_dims =
              List.mapi
                (fun i d -> Expr.(d + List.nth before i + List.nth after i))
                x.Sym.dims
            in
            let reflect_limit =
              match mode with
              | Op.Pad_reflect ->
                  List.concat
                    (List.mapi
                       (fun i d ->
                         if List.mem i padded_axes then
                           Formula.
                             [
                               List.nth before i < d; List.nth after i < d;
                             ]
                         else [])
                       x.Sym.dims)
              | Op.Pad_constant _ | Op.Pad_replicate -> []
            in
            let requires = dims_positive out_dims @ reflect_limit in
            Some
              (instance ~requires
                 (Op.Pad (mk_mode rng, { pad_before = before; pad_after = after }))
                 (Sym.make (Sym.dtype x) out_dims))
        | _ -> None);
    backward = None;
  }

let concat_tpl n =
  {
    t_name = Printf.sprintf "Concat%d" n;
    t_arity = n;
    accepts =
      (fun sig_ ->
        match sig_ with
        | [] -> false
        | (dt0, r0) :: rest ->
            r0 >= 1 && List.for_all (fun (dt, r) -> dt = dt0 && r = r0) rest
            && List.length sig_ = n);
    forward =
      (fun rng inputs ->
        match inputs with
        | x :: _ when List.length inputs = n && Sym.rank x >= 1 ->
            let r = Sym.rank x in
            if
              List.for_all
                (fun t -> Sym.dtype t = Sym.dtype x && Sym.rank t = r)
                inputs
            then begin
              let axis = Shapegen.random_axis rng r in
              let requires =
                List.concat_map
                  (fun t ->
                    List.concat
                      (List.mapi
                         (fun i (d, d0) ->
                           if i = axis then []
                           else [ Formula.(d = d0) ])
                         (List.combine t.Sym.dims x.Sym.dims)))
                  (List.tl inputs)
              in
              let axis_sum =
                Expr.sum (List.map (fun t -> List.nth t.Sym.dims axis) inputs)
              in
              let out_dims =
                List.mapi
                  (fun i d -> if i = axis then axis_sum else d)
                  x.Sym.dims
              in
              Some
                (instance ~requires
                   (Op.Concat { cat_axis = axis; cat_n = n })
                   (Sym.make (Sym.dtype x) out_dims))
            end
            else None
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          if Sym.rank v < 1 then None
          else begin
            let axis = Shapegen.random_axis rng (Sym.rank v) in
            let parts =
              List.init n (fun k -> Expr.fresh (Printf.sprintf "cat_p%d" k))
            in
            let requires =
              Formula.(Expr.sum parts = List.nth v.Sym.dims axis)
              :: List.map (fun p -> Formula.(Expr.one <= p)) parts
            in
            let in_types =
              List.map
                (fun p ->
                  Sym.make (Sym.dtype v)
                    (List.mapi
                       (fun i d -> if i = axis then p else d)
                       v.Sym.dims))
                parts
            in
            Some
              ( instance ~requires
                  (Op.Concat { cat_axis = axis; cat_n = n })
                  (Sym.make (Sym.dtype v) v.Sym.dims),
                in_types )
          end);
  }

let expand_tpl =
  {
    t_name = "Expand";
    t_arity = 1;
    accepts = (function [ _ ] -> true | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ x ] ->
            let r = Sym.rank x in
            let out_rank = Shapegen.random_rank ~min:(max r 1) rng in
            let requires = ref [] in
            let aligned =
              List.mapi
                (fun i d ->
                  ignore i;
                  match Shapegen.random_mode rng with
                  | Shapegen.Bc_equal | Bc_right_one -> d
                  | Bc_left_one ->
                      let o = Expr.fresh "exp_d" in
                      requires := Formula.(d = Expr.one) :: !requires;
                      o)
                x.Sym.dims
            in
            let leading =
              fresh_dims rng ~prefix:"exp_l" (out_rank - r)
            in
            let out_dims = leading @ aligned in
            Some
              (instance
                 ~requires:(!requires @ dims_positive out_dims)
                 (Op.Expand out_dims)
                 (Sym.make (Sym.dtype x) out_dims))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          let r = Sym.rank v in
          let in_rank = Shapegen.random_rank ~min:0 ~max:r rng in
          let v_arr = Array.of_list v.Sym.dims in
          let in_dims =
            List.init in_rank (fun i ->
                let vd = v_arr.(r - in_rank + i) in
                match Shapegen.random_mode rng with
                | Shapegen.Bc_equal | Bc_right_one -> vd
                | Bc_left_one -> Expr.one)
          in
          Some
            ( instance (Op.Expand v.Sym.dims) (Sym.make (Sym.dtype v) v.Sym.dims),
              [ Sym.make (Sym.dtype v) in_dims ] ));
  }

let gather_tpl =
  {
    t_name = "Gather";
    t_arity = 2;
    accepts =
      (function
      | [ (_, rd); (di, ri) ] ->
          rd >= 1 && Dtype.is_int di && rd - 1 + ri <= Shapegen.max_rank
      | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ data; indices ]
          when Sym.rank data >= 1
               && Dtype.is_int (Sym.dtype indices)
               && Sym.rank data - 1 + Sym.rank indices <= Shapegen.max_rank ->
            let axis = Shapegen.random_axis rng (Sym.rank data) in
            let before = List.filteri (fun i _ -> i < axis) data.Sym.dims
            and after = List.filteri (fun i _ -> i > axis) data.Sym.dims in
            Some
              (instance
                 (Op.Gather { g_axis = axis })
                 (Sym.make (Sym.dtype data)
                    (before @ indices.Sym.dims @ after)))
        | _ -> None);
    backward = None;
  }

let tile_tpl =
  {
    t_name = "Tile";
    t_arity = 1;
    accepts = (function [ (_, r) ] -> r >= 1 | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ x ] when Sym.rank x >= 1 ->
            let reps =
              List.mapi
                (fun i _ -> Expr.fresh (Printf.sprintf "tile_r%d" i))
                x.Sym.dims
            in
            ignore rng;
            let out_dims = List.map2 (fun d r -> Expr.(d * r)) x.Sym.dims reps in
            let requires =
              List.map (fun r -> Formula.(Expr.one <= r)) reps
            in
            Some
              (instance ~requires (Op.Tile reps)
                 (Sym.make (Sym.dtype x) out_dims))
        | _ -> None);
    backward = None;
  }

let all : template list =
  [
    reshape_tpl;
    gather_tpl;
    tile_tpl;
    flatten_tpl;
    transpose_tpl;
    squeeze_tpl;
    unsqueeze_tpl;
    slice_tpl;
    pad_tpl (Op.Pad_constant 0.);
    pad_tpl Op.Pad_reflect;
    pad_tpl Op.Pad_replicate;
    concat_tpl 2;
    concat_tpl 3;
    expand_tpl;
  ]
