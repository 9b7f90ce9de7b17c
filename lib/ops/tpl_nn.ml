(** Templates for neural-network operators: MatMul, Conv2d, pooling,
    Softmax, reductions and arg-extrema. *)

module Expr = Nnsmith_smt.Expr
module Formula = Nnsmith_smt.Formula
module Dtype = Nnsmith_tensor.Dtype
module Op = Nnsmith_ir.Op
module Sym = Nnsmith_ir.Ttype.Sym
open Spec

let numeric = Dtype.floats @ Dtype.ints

(* Keep compute kernels affordable for the interpreter: caps on the flop-
   dominating products (documented in DESIGN.md; the paper keeps models
   small through binning instead). *)
let conv_flops_cap = 512
let matmul_k_cap = 256

(* ------------------------------------------------------------------ *)
(* MatMul                                                              *)

let split_matmul_dims (t : Sym.t) =
  (* batch dims, row dim (if rank >= 2), contraction dim *)
  let dims = Array.of_list t.Sym.dims in
  let r = Array.length dims in
  if r = 1 then ([], None, dims.(0))
  else
    ( Array.to_list (Array.sub dims 0 (r - 2)),
      Some dims.(r - 2),
      dims.(r - 1) )

let matmul_tpl =
  {
    t_name = "MatMul";
    t_arity = 2;
    accepts =
      (function
      | [ (da, ra); (db, rb) ] ->
          da = db && Dtype.is_float da && ra >= 1 && rb >= 1
      | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ a; b ]
          when Sym.dtype a = Sym.dtype b
               && Dtype.is_float (Sym.dtype a)
               && Sym.rank a >= 1 && Sym.rank b >= 1 ->
            let batch_a, m, ka = split_matmul_dims a in
            let b_dims = Array.of_list b.Sym.dims in
            let rb = Array.length b_dims in
            let kb, n, batch_b =
              if rb = 1 then (b_dims.(0), None, [])
              else
                ( b_dims.(rb - 2),
                  Some b_dims.(rb - 1),
                  Array.to_list (Array.sub b_dims 0 (rb - 2)) )
            in
            let cs, batch = Shapegen.broadcast2 rng batch_a batch_b in
            let out_dims =
              batch
              @ (match m with Some d -> [ d ] | None -> [])
              @ (match n with Some d -> [ d ] | None -> [])
            in
            let requires =
              Formula.(ka = kb)
              :: Formula.(ka <= Expr.int matmul_k_cap)
              :: cs
            in
            Some
              (instance ~requires Op.Mat_mul (Sym.make (Sym.dtype a) out_dims))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          if not (Dtype.is_float (Sym.dtype v)) then None
          else begin
            let dt = Sym.dtype v in
            let k = Expr.fresh ~hi:matmul_k_cap "mm_k" in
            let r = Sym.rank v in
            if r = 0 then
              (* vector . vector -> scalar *)
              Some
                ( instance Op.Mat_mul (Sym.make dt []),
                  [ Sym.make dt [ k ]; Sym.make dt [ k ] ] )
            else begin
              let dims = Array.of_list v.Sym.dims in
              if r = 1 && Random.State.bool rng then
                (* matrix . vector -> vector *)
                Some
                  ( instance Op.Mat_mul (Sym.make dt v.Sym.dims),
                    [ Sym.make dt [ dims.(0); k ]; Sym.make dt [ k ] ] )
              else if r = 1 then
                (* vector . matrix -> vector *)
                Some
                  ( instance Op.Mat_mul (Sym.make dt v.Sym.dims),
                    [ Sym.make dt [ k ]; Sym.make dt [ k; dims.(0) ] ] )
              else begin
                (* [batch; m; k] . [k; n] (optionally batched rhs) *)
                let batch = Array.to_list (Array.sub dims 0 (r - 2)) in
                let m = dims.(r - 2) and n = dims.(r - 1) in
                let a = Sym.make dt (batch @ [ m; k ]) in
                let b =
                  if Random.State.bool rng then Sym.make dt [ k; n ]
                  else Sym.make dt (batch @ [ k; n ])
                in
                Some (instance Op.Mat_mul (Sym.make dt v.Sym.dims), [ a; b ])
              end
            end
          end);
  }

(* ------------------------------------------------------------------ *)
(* Conv2d                                                              *)

let conv_out_dim ~in_dim ~k ~p ~s =
  Expr.((in_dim + (int 2 * p) - k) / s + one)

let conv2d_tpl =
  {
    t_name = "Conv2d";
    t_arity = 1;
    accepts =
      (function [ (dt, 4) ] -> Dtype.is_float dt | _ -> false);
    forward =
      (fun _rng inputs ->
        match inputs with
        | [ x ] when Sym.rank x = 4 && Dtype.is_float (Sym.dtype x) ->
            let dims = Array.of_list x.Sym.dims in
            let n = dims.(0) and c = dims.(1) and h = dims.(2) and w = dims.(3) in
            let f = Expr.fresh "conv_f"
            and kh = Expr.fresh "conv_kh"
            and kw = Expr.fresh "conv_kw"
            and s = Expr.fresh "conv_s"
            and p = Expr.fresh ~lo:0 "conv_p" in
            let weight = Sym.make (Sym.dtype x) [ f; c; kh; kw ] in
            let out =
              Sym.make (Sym.dtype x)
                [
                  n;
                  f;
                  conv_out_dim ~in_dim:h ~k:kh ~p ~s;
                  conv_out_dim ~in_dim:w ~k:kw ~p ~s;
                ]
            in
            let requires =
              Formula.
                [
                  Expr.one <= kh;
                  Expr.one <= kw;
                  Expr.one <= s;
                  Expr.zero <= p;
                  kh <= Expr.(h + (int 2 * p));
                  kw <= Expr.(w + (int 2 * p));
                  (* padding never exceeds the kernel *)
                  p < kh;
                  p < kw;
                  Expr.(c * kh * kw) <= Expr.int conv_flops_cap;
                ]
            in
            Some
              {
                op =
                  Op.Conv2d
                    { out_channels = f; kh; kw; stride = s; padding = p };
                requires;
                out_type = out;
                extra_inputs = [ weight ];
              }
        | _ -> None);
    backward =
      Some
        (fun _rng v ->
          if Sym.rank v = 4 && Dtype.is_float (Sym.dtype v) then begin
            let dt = Sym.dtype v in
            let dims = Array.of_list v.Sym.dims in
            let n = dims.(0) and f = dims.(1) and oh = dims.(2) and ow = dims.(3) in
            let c = Expr.fresh "conv_c"
            and kh = Expr.fresh "conv_kh"
            and kw = Expr.fresh "conv_kw"
            and s = Expr.fresh "conv_s"
            and p = Expr.fresh ~lo:0 "conv_p"
            (* slack variables make the floor division invertible:
               h = (oh-1)*s + kh - 2p + slack with 0 <= slack < s *)
            and sh = Expr.fresh ~lo:0 "conv_slh"
            and sw = Expr.fresh ~lo:0 "conv_slw" in
            let h = Expr.(((oh - one) * s) + kh - (int 2 * p) + sh)
            and w = Expr.(((ow - one) * s) + kw - (int 2 * p) + sw) in
            let input = Sym.make dt [ n; c; h; w ] in
            let weight = Sym.make dt [ f; c; kh; kw ] in
            let requires =
              Formula.
                [
                  Expr.one <= kh;
                  Expr.one <= kw;
                  Expr.one <= s;
                  Expr.zero <= p;
                  p < kh;
                  p < kw;
                  sh < s;
                  sw < s;
                  Expr.one <= h;
                  Expr.one <= w;
                  kh <= Expr.(h + (int 2 * p));
                  kw <= Expr.(w + (int 2 * p));
                  Expr.(c * kh * kw) <= Expr.int conv_flops_cap;
                ]
            in
            let inst =
              {
                op =
                  Op.Conv2d
                    { out_channels = f; kh; kw; stride = s; padding = p };
                requires;
                out_type = Sym.make dt v.Sym.dims;
                extra_inputs = [];
              }
            in
            Some (inst, [ input; weight ])
          end
          else None);
  }

(* ------------------------------------------------------------------ *)
(* Pool2d                                                              *)

let pool2d_tpl (kind : Op.pool) =
  {
    t_name = Op.pool_name kind;
    t_arity = 1;
    accepts = (function [ (dt, 4) ] -> Dtype.is_float dt | _ -> false);
    forward =
      (fun _rng inputs ->
        match inputs with
        | [ x ] when Sym.rank x = 4 && Dtype.is_float (Sym.dtype x) ->
            let dims = Array.of_list x.Sym.dims in
            let n = dims.(0) and c = dims.(1) and h = dims.(2) and w = dims.(3) in
            let kh = Expr.fresh "pool_kh"
            and kw = Expr.fresh "pool_kw"
            and s = Expr.fresh "pool_s"
            and p = Expr.fresh ~lo:0 "pool_p" in
            let out =
              Sym.make (Sym.dtype x)
                [
                  n;
                  c;
                  conv_out_dim ~in_dim:h ~k:kh ~p ~s;
                  conv_out_dim ~in_dim:w ~k:kw ~p ~s;
                ]
            in
            let requires =
              Formula.
                [
                  Expr.one <= kh;
                  Expr.one <= kw;
                  Expr.one <= s;
                  Expr.zero <= p;
                  Expr.(int 2 * p) <= kh;
                  Expr.(int 2 * p) <= kw;
                  kh <= Expr.(h + (int 2 * p));
                  kw <= Expr.(w + (int 2 * p));
                ]
            in
            Some
              (instance ~requires
                 (Op.Pool2d
                    (kind, { p_kh = kh; p_kw = kw; p_stride = s; p_padding = p }))
                 out)
        | _ -> None);
    backward =
      Some
        (fun _rng v ->
          if Sym.rank v = 4 && Dtype.is_float (Sym.dtype v) then begin
            let dt = Sym.dtype v in
            let dims = Array.of_list v.Sym.dims in
            let n = dims.(0) and c = dims.(1) and oh = dims.(2) and ow = dims.(3) in
            let kh = Expr.fresh "pool_kh"
            and kw = Expr.fresh "pool_kw"
            and s = Expr.fresh "pool_s"
            and p = Expr.fresh ~lo:0 "pool_p"
            and sh = Expr.fresh ~lo:0 "pool_slh"
            and sw = Expr.fresh ~lo:0 "pool_slw" in
            let h = Expr.(((oh - one) * s) + kh - (int 2 * p) + sh)
            and w = Expr.(((ow - one) * s) + kw - (int 2 * p) + sw) in
            let requires =
              Formula.
                [
                  Expr.one <= kh;
                  Expr.one <= kw;
                  Expr.one <= s;
                  Expr.zero <= p;
                  Expr.(int 2 * p) <= kh;
                  Expr.(int 2 * p) <= kw;
                  sh < s;
                  sw < s;
                  Expr.one <= h;
                  Expr.one <= w;
                ]
            in
            let inst =
              instance ~requires
                (Op.Pool2d
                   (kind, { p_kh = kh; p_kw = kw; p_stride = s; p_padding = p }))
                (Sym.make dt v.Sym.dims)
            in
            Some (inst, [ Sym.make dt [ n; c; h; w ] ])
          end
          else None);
  }

(* ------------------------------------------------------------------ *)
(* Softmax, reductions, arg extrema                                    *)

let softmax_tpl =
  {
    t_name = "Softmax";
    t_arity = 1;
    accepts = (function [ (dt, r) ] -> Dtype.is_float dt && r >= 1 | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ x ] when Dtype.is_float (Sym.dtype x) && Sym.rank x >= 1 ->
            let axis = Shapegen.random_axis rng (Sym.rank x) in
            Some
              (instance (Op.Softmax { sm_axis = axis })
                 (Sym.make (Sym.dtype x) x.Sym.dims))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          if Dtype.is_float (Sym.dtype v) && Sym.rank v >= 1 then begin
            let axis = Shapegen.random_axis rng (Sym.rank v) in
            Some
              ( instance (Op.Softmax { sm_axis = axis })
                  (Sym.make (Sym.dtype v) v.Sym.dims),
                [ Sym.make (Sym.dtype v) v.Sym.dims ] )
          end
          else None);
  }

let insert_at l pos x =
  let rec go i = function
    | rest when i = pos -> x :: rest
    | [] -> [ x ]
    | y :: rest -> y :: go (i + 1) rest
  in
  go 0 l

let reduce_dtypes (r : Op.reduce) =
  match r with
  | Op.R_mean -> Dtype.floats
  | R_sum | R_max | R_min | R_prod -> numeric

let reduce_tpl (r : Op.reduce) =
  let dtypes = reduce_dtypes r in
  {
    t_name = Op.reduce_name r;
    t_arity = 1;
    accepts =
      (function [ (dt, rk) ] -> List.mem dt dtypes && rk >= 1 | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ x ] when List.mem (Sym.dtype x) dtypes && Sym.rank x >= 1 ->
            let axes = Shapegen.random_axes rng (Sym.rank x) in
            let keepdims = Random.State.bool rng in
            let out_dims =
              if keepdims then
                List.mapi
                  (fun i d -> if List.mem i axes then Expr.one else d)
                  x.Sym.dims
              else List.filteri (fun i _ -> not (List.mem i axes)) x.Sym.dims
            in
            Some
              (instance
                 (Op.Reduce (r, { r_axes = axes; r_keepdims = keepdims }))
                 (Sym.make (Sym.dtype x) out_dims))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          if List.mem (Sym.dtype v) dtypes then begin
            let rk = Sym.rank v in
            let extra = 1 + Random.State.int rng (max 1 (Shapegen.max_rank - rk))
            in
            if rk + extra > Shapegen.max_rank then None
            else begin
              (* insert [extra] fresh reduced axes at random positions *)
              let rec build dims axes k =
                if k = 0 then (dims, axes)
                else begin
                  let pos = Random.State.int rng (List.length dims + 1) in
                  let d = Expr.fresh "red_d" in
                  let dims = insert_at dims pos d in
                  let axes =
                    pos :: List.map (fun a -> if a >= pos then a + 1 else a) axes
                  in
                  build dims axes (k - 1)
                end
              in
              let in_dims, axes = build v.Sym.dims [] extra in
              Some
                ( instance
                    (Op.Reduce
                       (r, { r_axes = List.sort compare axes; r_keepdims = false }))
                    (Sym.make (Sym.dtype v) v.Sym.dims),
                  [ Sym.make (Sym.dtype v) in_dims ] )
            end
          end
          else None);
  }

let arg_tpl ~is_max =
  let mk axis =
    if is_max then Op.Arg_max { am_axis = axis } else Op.Arg_min { am_axis = axis }
  in
  {
    t_name = (if is_max then "ArgMax" else "ArgMin");
    t_arity = 1;
    accepts =
      (function [ (dt, r) ] -> List.mem dt numeric && r >= 1 | _ -> false);
    forward =
      (fun rng inputs ->
        match inputs with
        | [ x ] when List.mem (Sym.dtype x) numeric && Sym.rank x >= 1 ->
            let axis = Shapegen.random_axis rng (Sym.rank x) in
            let out_dims = List.filteri (fun i _ -> i <> axis) x.Sym.dims in
            Some (instance (mk axis) (Sym.make Dtype.I64 out_dims))
        | _ -> None);
    backward =
      Some
        (fun rng v ->
          if Sym.dtype v = Dtype.I64 && Sym.rank v < Shapegen.max_rank then begin
            let axis = Random.State.int rng (Sym.rank v + 1) in
            let d = Expr.fresh "arg_d" in
            let in_dims = insert_at v.Sym.dims axis d in
            let dt = pick rng numeric in
            Some
              ( instance (mk axis) (Sym.make Dtype.I64 v.Sym.dims),
                [ Sym.make dt in_dims ] )
          end
          else None);
  }

let all : template list =
  [
    matmul_tpl;
    conv2d_tpl;
    pool2d_tpl Op.P_max;
    pool2d_tpl Op.P_avg;
    softmax_tpl;
    arg_tpl ~is_max:true;
    arg_tpl ~is_max:false;
  ]
  @ List.map reduce_tpl [ Op.R_sum; R_mean; R_max; R_min; R_prod ]
