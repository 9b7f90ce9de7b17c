(** Templates for elementwise operators: the unary family, binary arithmetic
    with broadcasting, comparisons, boolean logic, Where, Clip, Cast. *)

module Expr = Nnsmith_smt.Expr
module Dtype = Nnsmith_tensor.Dtype
module Op = Nnsmith_ir.Op
module Sym = Nnsmith_ir.Ttype.Sym
open Spec

let same_out (t : Sym.t) = Sym.make (Sym.dtype t) t.Sym.dims

(* ------------------------------------------------------------------ *)
(* Unary                                                               *)

let unary_tpl ?(dtypes = Dtype.floats) (u : Op.unary) =
  {
    t_name = Op.unary_name u;
    t_arity = 1;
    accepts = (function [ (dt, _) ] -> List.mem dt dtypes | _ -> false);
    forward =
      (fun _rng inputs ->
        match inputs with
        | [ t ] when List.mem (Sym.dtype t) dtypes ->
            Some (instance (Op.Unary u) (same_out t))
        | _ -> None);
    backward =
      Some
        (fun _rng v ->
          if List.mem (Sym.dtype v) dtypes then
            Some (instance (Op.Unary u) (same_out v), [ same_out v ])
          else None);
  }

let not_tpl =
  {
    t_name = "Not";
    t_arity = 1;
    accepts = (function [ (Dtype.Bool, _) ] -> true | _ -> false);
    forward =
      (fun _rng inputs ->
        match inputs with
        | [ t ] when Sym.dtype t = Dtype.Bool ->
            Some (instance Op.Not (same_out t))
        | _ -> None);
    backward =
      Some
        (fun _rng v ->
          if Sym.dtype v = Dtype.Bool then
            Some (instance Op.Not (same_out v), [ same_out v ])
          else None);
  }

let random_clip rng =
  let lo = -.(1. +. Random.State.float rng 4.) in
  let hi = 1. +. Random.State.float rng 4. in
  Op.Clip { c_lo = lo; c_hi = hi }

let clip_tpl =
  {
    t_name = "Clip";
    t_arity = 1;
    accepts = (function [ (dt, _) ] -> Dtype.is_float dt | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ t ] when Dtype.is_float (Sym.dtype t) ->
            Some (instance (random_clip rng) (same_out t))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          if Dtype.is_float (Sym.dtype v) then
            Some (instance (random_clip rng) (same_out v), [ same_out v ])
          else None);
  }

let leaky_relu_tpl =
  let mk rng = Op.Leaky_relu { alpha = 0.01 +. Random.State.float rng 0.2 } in
  {
    t_name = "LeakyRelu";
    t_arity = 1;
    accepts = (function [ (dt, _) ] -> Dtype.is_float dt | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ t ] when Dtype.is_float (Sym.dtype t) ->
            Some (instance (mk rng) (same_out t))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          if Dtype.is_float (Sym.dtype v) then
            Some (instance (mk rng) (same_out v), [ same_out v ])
          else None);
  }

let cast_tpl =
  {
    t_name = "Cast";
    t_arity = 1;
    accepts = (function [ _ ] -> true | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ t ] ->
            let target =
              pick rng (List.filter (fun d -> d <> Sym.dtype t) Dtype.all)
            in
            Some (instance (Op.Cast target) (Sym.make target t.Sym.dims))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          let src = pick rng (List.filter (fun d -> d <> Sym.dtype v) Dtype.all) in
          Some
            ( instance (Op.Cast (Sym.dtype v)) (same_out v),
              [ Sym.make src v.Sym.dims ] ));
  }

(* ------------------------------------------------------------------ *)
(* Binary with broadcasting                                            *)

(* Backward-insertion input shapes: the first input reproduces the target
   dims; the second gets a random rank and per-dim broadcast pattern. *)
let backward_pair rng (v : Sym.t) dtype_a dtype_b =
  let r = Sym.rank v in
  let rb = Shapegen.random_rank ~min:0 ~max:r rng in
  let v_arr = Array.of_list v.Sym.dims in
  let b_dims =
    List.init rb (fun i ->
        let vd = v_arr.(r - rb + i) in
        match Shapegen.random_mode rng with
        | Shapegen.Bc_left_one | Bc_equal -> vd
        | Bc_right_one -> Expr.one)
  in
  let a = Sym.make dtype_a v.Sym.dims and b = Sym.make dtype_b b_dims in
  if Random.State.bool rng then (a, b) else (b, a)

let binary_tpl ?(dtypes = Dtype.floats) (b : Op.binary) =
  {
    t_name = Op.binary_name b;
    t_arity = 2;
    accepts =
      (function
      | [ (da, _); (db, _) ] -> da = db && List.mem da dtypes
      | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ x; y ]
          when Sym.dtype x = Sym.dtype y && List.mem (Sym.dtype x) dtypes ->
            let cs, out = Shapegen.broadcast2 rng x.Sym.dims y.Sym.dims in
            Some
              (instance ~requires:cs (Op.Binary b)
                 (Sym.make (Sym.dtype x) out))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          if List.mem (Sym.dtype v) dtypes then begin
            let a, b' = backward_pair rng v (Sym.dtype v) (Sym.dtype v) in
            Some (instance (Op.Binary b) (same_out v), [ a; b' ])
          end
          else None);
  }

let compare_tpl (c : Op.compare) =
  let numeric = Dtype.floats @ Dtype.ints in
  {
    t_name = Op.compare_name c;
    t_arity = 2;
    accepts =
      (function
      | [ (da, _); (db, _) ] -> da = db && List.mem da numeric
      | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ x; y ]
          when Sym.dtype x = Sym.dtype y && List.mem (Sym.dtype x) numeric ->
            let cs, out = Shapegen.broadcast2 rng x.Sym.dims y.Sym.dims in
            Some (instance ~requires:cs (Op.Compare c) (Sym.make Dtype.Bool out))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          if Sym.dtype v = Dtype.Bool then begin
            let dt = pick rng numeric in
            let a, b = backward_pair rng v dt dt in
            Some (instance (Op.Compare c) (Sym.make Dtype.Bool v.Sym.dims), [ a; b ])
          end
          else None);
  }

let logical_tpl (l : Op.logical) =
  {
    t_name = Op.logical_name l;
    t_arity = 2;
    accepts =
      (function
      | [ (Dtype.Bool, _); (Dtype.Bool, _) ] -> true
      | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ x; y ] when Sym.dtype x = Dtype.Bool && Sym.dtype y = Dtype.Bool ->
            let cs, out = Shapegen.broadcast2 rng x.Sym.dims y.Sym.dims in
            Some (instance ~requires:cs (Op.Logical l) (Sym.make Dtype.Bool out))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          if Sym.dtype v = Dtype.Bool then begin
            let a, b = backward_pair rng v Dtype.Bool Dtype.Bool in
            Some (instance (Op.Logical l) (same_out v), [ a; b ])
          end
          else None);
  }

let where_tpl =
  {
    t_name = "Where";
    t_arity = 3;
    accepts =
      (function
      | [ (Dtype.Bool, _); (dt, _); (df, _) ] -> dt = df && dt <> Dtype.Bool
      | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ c; t; f ]
          when Sym.dtype c = Dtype.Bool
               && Sym.dtype t = Sym.dtype f
               && Sym.dtype t <> Dtype.Bool ->
            let cs, out =
              Shapegen.broadcast3 rng c.Sym.dims t.Sym.dims f.Sym.dims
            in
            Some (instance ~requires:cs Op.Where (Sym.make (Sym.dtype t) out))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          if Sym.dtype v <> Dtype.Bool then begin
            let t, f = backward_pair rng v (Sym.dtype v) (Sym.dtype v) in
            (* ensure at least one branch carries the full target shape *)
            let t = if Sym.rank t = Sym.rank v then t else same_out v in
            let cond, _ = backward_pair rng v Dtype.Bool Dtype.Bool in
            Some (instance Op.Where (same_out v), [ cond; t; f ])
          end
          else None);
  }

let all : template list =
  List.map unary_tpl
    [
      Op.Exp; Log; Log2; Sqrt; Sin; Cos; Tan; Asin; Acos; Atan; Tanh; Sigmoid;
      Relu; Gelu; Floor; Ceil; Round; Reciprocal; Erf; Softplus; Softsign;
      Elu; Selu; Hardswish; Hardsigmoid;
    ]
  @ List.map (unary_tpl ~dtypes:(Dtype.floats @ Dtype.ints)) [ Op.Abs; Neg; Sign ]
  @ [ not_tpl; clip_tpl; leaky_relu_tpl; cast_tpl ]
  @ List.map
      (binary_tpl ~dtypes:(Dtype.floats @ Dtype.ints))
      [ Op.Add; Sub; Mul; Max2; Min2 ]
  @ List.map binary_tpl [ Op.Div; Pow; Mod2 ]
  @ List.map compare_tpl [ Op.Equal; Greater; Less ]
  @ List.map logical_tpl [ Op.L_and; L_or; L_xor ]
  @ [ where_tpl ]
