(** Lotus's low-level tensor IR: flat loop nests over buffers with explicit
    index arithmetic, its arithmetic-simplification / unrolling /
    vectorization passes, and an interpreter.

    This is the layer the paper's TZer baseline mutates (Figure 8), and the
    home of the low-level seeded defects (wrong div/mul/mod reordering,
    unroll off-by-one, vectorize tail assert). *)

module Nd = Nnsmith_tensor.Nd
module Dtype = Nnsmith_tensor.Dtype
module Op = Nnsmith_ir.Op
module Cov = Nnsmith_coverage.Coverage
module Faults = Nnsmith_faults.Faults

(* ------------------------------------------------------------------ *)
(* Syntax.                                                             *)

type iexpr =
  | Iconst of int
  | Ivar of string
  | Iadd of iexpr * iexpr
  | Imul of iexpr * iexpr
  | Idiv of iexpr * iexpr  (** floor *)
  | Imod of iexpr * iexpr

type vexpr =
  | Vconst of float
  | Vload of int * iexpr  (** buffer index, element index *)
  | Vbin of Op.binary * vexpr * vexpr
  | Vun of Op.unary * vexpr
  | Vclip of float * float * vexpr
  | Vleaky of float * vexpr

type loop_kind = Serial | Unrolled | Vectorized

type stmt =
  | For of { v : string; extent : int; kind : loop_kind; body : stmt list }
  | Store of { index : iexpr; value : vexpr }  (** into the output buffer *)

type func = {
  f_name : string;
  n_inputs : int;  (** buffers 0..n-1 are inputs; the output is separate *)
  body : stmt list;
}

(* ------------------------------------------------------------------ *)
(* Building blocks used by lowering.                                   *)

(** Index of the broadcast source element for output linear index [ivar],
    as explicit div/mod arithmetic — grist for the simplifier. *)
let broadcast_index ~(src : int array) ~(dst : int array) (ivar : iexpr) :
    iexpr =
  let rd = Array.length dst and rs = Array.length src in
  let dstrides = Nnsmith_tensor.Shape.strides dst
  and sstrides = Nnsmith_tensor.Shape.strides src in
  let acc = ref (Iconst 0) in
  for i = 0 to rd - 1 do
    let j = i - (rd - rs) in
    if j >= 0 && src.(j) > 1 then begin
      let axis_idx = Imod (Idiv (ivar, Iconst dstrides.(i)), Iconst dst.(i)) in
      acc := Iadd (!acc, Imul (axis_idx, Iconst sstrides.(j)))
    end
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Structural helpers (also used by the TZer mutator).                 *)

let rec iexpr_size = function
  | Iconst _ | Ivar _ -> 1
  | Iadd (a, b) | Imul (a, b) | Idiv (a, b) | Imod (a, b) ->
      1 + iexpr_size a + iexpr_size b

let rec map_stmts f stmts =
  List.map
    (fun s ->
      match s with
      | For r -> f (For { r with body = map_stmts f r.body })
      | Store _ -> f s)
    stmts

let rec map_iexpr_stmt fi s =
  match s with
  | For r -> For { r with body = List.map (map_iexpr_stmt fi) r.body }
  | Store { index; value } ->
      Store { index = fi index; value = map_iexpr_value fi value }

and map_iexpr_value fi = function
  | Vconst c -> Vconst c
  | Vload (b, i) -> Vload (b, fi i)
  | Vbin (op, a, b) -> Vbin (op, map_iexpr_value fi a, map_iexpr_value fi b)
  | Vun (op, a) -> Vun (op, map_iexpr_value fi a)
  | Vclip (lo, hi, a) -> Vclip (lo, hi, map_iexpr_value fi a)
  | Vleaky (al, a) -> Vleaky (al, map_iexpr_value fi a)

(* ------------------------------------------------------------------ *)
(* Pass: arithmetic simplification.                                    *)

let file_simplify = "lotus/tir/arith_simplify"

let rec simplify_iexpr (e : iexpr) : iexpr =
  let e =
    match e with
    | Iadd (a, b) -> Iadd (simplify_iexpr a, simplify_iexpr b)
    | Imul (a, b) -> Imul (simplify_iexpr a, simplify_iexpr b)
    | Idiv (a, b) -> Idiv (simplify_iexpr a, simplify_iexpr b)
    | Imod (a, b) -> Imod (simplify_iexpr a, simplify_iexpr b)
    | Iconst _ | Ivar _ -> e
  in
  match e with
  | Iadd (Iconst 0, x) | Iadd (x, Iconst 0) ->
      Cov.hit ~pass:true ~file:file_simplify "add0";
      x
  | Imul (Iconst 1, x) | Imul (x, Iconst 1) ->
      Cov.hit ~pass:true ~file:file_simplify "mul1";
      x
  | Imul (Iconst 0, _) | Imul (_, Iconst 0) ->
      Cov.hit ~pass:true ~file:file_simplify "mul0";
      Iconst 0
  | Idiv (x, Iconst 1) ->
      Cov.hit ~pass:true ~file:file_simplify "div1";
      x
  | Imod (_, Iconst 1) ->
      Cov.hit ~pass:true ~file:file_simplify "mod1";
      Iconst 0
  | Iadd (Iconst a, Iconst b) -> Iconst (a + b)
  | Imul (Iconst a, Iconst b) -> Iconst (a * b)
  | Imul (Imod (Idiv (x, Iconst s), Iconst d), Iconst s') when s = s' ->
      (* ((x / s) mod d) * s:  the correct identity is
           x mod (d*s) - (x mod s)
         the seeded defect drops the correction term, reordering the
         division and multiplication incorrectly (paper §5.4). *)
      Cov.hit ~pass:true ~file:file_simplify "divmulmod";
      if Faults.enabled "lotus.simplify_div_mul_mod" then
        Imod (x, Iconst (d * s))
      else if s = 1 then Imod (x, Iconst d)
      else (* keep the sound form *)
        Imul (Imod (Idiv (x, Iconst s), Iconst d), Iconst s')
  | other -> other

let pass_simplify (f : func) : func =
  { f with body = List.map (map_iexpr_stmt simplify_iexpr) f.body }

(* ------------------------------------------------------------------ *)
(* Pass: loop unrolling.                                               *)

let file_unroll = "lotus/tir/unroll"

let subst_var name value stmts =
  let rec subst_i = function
    | Ivar v when v = name -> Iconst value
    | Iconst _ | Ivar _ as e -> e
    | Iadd (a, b) -> Iadd (subst_i a, subst_i b)
    | Imul (a, b) -> Imul (subst_i a, subst_i b)
    | Idiv (a, b) -> Idiv (subst_i a, subst_i b)
    | Imod (a, b) -> Imod (subst_i a, subst_i b)
  in
  List.map (map_iexpr_stmt subst_i) stmts

let unroll_threshold = 4

let rec pass_unroll_stmts stmts =
  List.concat_map
    (fun s ->
      match s with
      | For ({ extent; kind = Serial; _ } as r)
        when Cov.branch ~pass:true ~file:file_unroll "small"
               (extent <= unroll_threshold) ->
          let body = pass_unroll_stmts r.body in
          let last =
            if Faults.enabled "lotus.unroll_off_by_one" then extent - 1
            else extent
          in
          List.concat_map
            (fun k -> subst_var r.v k body)
            (List.init last Fun.id)
      | For r -> [ For { r with body = pass_unroll_stmts r.body } ]
      | Store _ -> [ s ])
    stmts

let pass_unroll (f : func) : func = { f with body = pass_unroll_stmts f.body }

(* ------------------------------------------------------------------ *)
(* Pass: vectorization (simulated; marks loops).                       *)

let file_vectorize = "lotus/tir/vectorize"
let vector_width = 4

let rec pass_vectorize_stmts stmts =
  List.map
    (fun s ->
      match s with
      | For ({ extent; kind = Serial; body = [ Store _ ]; _ } as r) ->
          if
            Cov.branch ~pass:true ~file:file_vectorize "divisible"
              (extent mod vector_width = 0)
          then For { r with kind = Vectorized }
          else begin
            if Faults.enabled "lotus.vectorize_tail" && extent > vector_width
            then
              Faults.crash "lotus.vectorize_tail"
                "vectorize: extent not divisible by lanes";
            s
          end
      | For r -> For { r with body = pass_vectorize_stmts r.body }
      | Store _ -> s)
    stmts

let pass_vectorize (f : func) : func =
  { f with body = pass_vectorize_stmts f.body }

let default_passes = [ pass_simplify; pass_unroll; pass_vectorize ]

(* "Code generation": walk the optimised function and select an intrinsic
   per value operation and loop shape.  This models the per-instruction
   dispatch both graph-level lowering and direct IR fuzzing exercise. *)
let file_codegen = "lotus/tir/codegen"

let codegen_scan (f : func) : unit =
  let rec scan_v = function
    | Vconst _ -> Cov.arm ~pass:true ~file:file_codegen "imm" "f"
    | Vload (b, i) ->
        Cov.arm ~pass:true ~file:file_codegen "load"
          (if b = 0 then "b0" else "bN");
        Cov.arm ~pass:true ~file:file_codegen "addr"
          (if iexpr_size i <= 1 then "simple" else "strided")
    | Vbin (op, a, b) ->
        Cov.arm ~pass:true ~file:file_codegen "binop" (Op.binary_name op);
        scan_v a;
        scan_v b
    | Vun (op, a) ->
        Cov.arm ~pass:true ~file:file_codegen "unop" (Op.unary_name op);
        scan_v a
    | Vclip (_, _, a) ->
        Cov.arm ~pass:true ~file:file_codegen "unop" "Clip";
        scan_v a
    | Vleaky (_, a) ->
        Cov.arm ~pass:true ~file:file_codegen "unop" "LeakyRelu";
        scan_v a
  in
  let rec scan_s depth = function
    | For { extent; kind; body; _ } ->
        Cov.arm ~pass:true ~file:file_codegen "loop"
          (Printf.sprintf "d%d_%s" (min depth 4)
             (match kind with
             | Serial -> "serial"
             | Unrolled -> "unrolled"
             | Vectorized -> "vec"));
        ignore extent;
        List.iter (scan_s (depth + 1)) body
    | Store { value; _ } -> scan_v value
  in
  List.iter (scan_s 0) f.body

let optimize ?(passes = default_passes) (f : func) : func =
  let f = List.fold_left (fun f p -> p f) f passes in
  codegen_scan f;
  f

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)

exception Tir_error of string

(* [run] compiles the function into closures once per call, then runs
   them.  A loop variable is a slot of one int array (the slot is the
   loop's nesting depth), resolved by name at compile time; operator
   functions are resolved at compile time too.  The closures keep the
   tree-walking interpreter's error precedence, which is what ocamlopt's
   right-to-left evaluation gave it: the right operand of [+] and [*] and
   of a binary value op is evaluated first, a divisor before its dividend,
   a store index before the stored value and the buffer check before the
   load index; an unbound variable raises only when evaluated. *)

let rec compile_iexpr scope : iexpr -> int array -> int = function
  | Iconst n -> fun _ -> n
  | Ivar v -> (
      match List.assoc_opt v scope with
      | Some slot -> fun env -> Array.unsafe_get env slot
      | None -> fun _ -> raise (Tir_error ("unbound loop var " ^ v)))
  | Iadd (a, b) ->
      let a = compile_iexpr scope a and b = compile_iexpr scope b in
      fun env ->
        let y = b env in
        a env + y
  | Imul (a, b) ->
      let a = compile_iexpr scope a and b = compile_iexpr scope b in
      fun env ->
        let y = b env in
        a env * y
  | Idiv (a, b) ->
      let a = compile_iexpr scope a and b = compile_iexpr scope b in
      fun env ->
        let d = b env in
        if d = 0 then raise (Tir_error "division by zero in index")
        else Nnsmith_smt.Expr.fdiv (a env) d
  | Imod (a, b) ->
      let a = compile_iexpr scope a and b = compile_iexpr scope b in
      fun env ->
        let d = b env in
        if d = 0 then raise (Tir_error "modulo by zero in index")
        else Nnsmith_smt.Expr.fmod (a env) d

let rec compile_vexpr scope (inputs : float array array) :
    vexpr -> int array -> float = function
  | Vconst c -> fun _ -> c
  | Vload (b, i) ->
      let i = compile_iexpr scope i in
      fun env ->
        let buf =
          if b < Array.length inputs then inputs.(b)
          else raise (Tir_error "bad buffer index")
        in
        let idx = i env in
        if idx < 0 || idx >= Array.length buf then begin
          Cov.hit ~file:"lotus/runtime" "oob_load";
          raise (Tir_error "out-of-bounds load")
        end
        else Array.unsafe_get buf idx
  | Vbin (op, a, b) ->
      let fn = Nnsmith_ops.Eval.binary_float_fn op in
      let a = compile_vexpr scope inputs a
      and b = compile_vexpr scope inputs b in
      fun env ->
        let y = b env in
        fn (a env) y
  | Vun (op, a) ->
      let fn = Nnsmith_ops.Eval.unary_float_fn op in
      let a = compile_vexpr scope inputs a in
      fun env -> fn (a env)
  | Vclip (lo, hi, a) ->
      let a = compile_vexpr scope inputs a in
      fun env -> Float.min hi (Float.max lo (a env))
  | Vleaky (al, a) ->
      let a = compile_vexpr scope inputs a in
      fun env ->
        let x = a env in
        if x >= 0. then x else al *. x

let run (f : func) (inputs : float array array) (out : float array) : unit =
  let file = "lotus/runtime" in
  (* the loop arms are recorded at the first entry of each loop kind in
     this call; a [Cov.reset] between calls is then still re-recorded *)
  let armed = Array.make 3 false in
  let slots = ref 0 in
  let rec compile_stmts depth scope stmts =
    match List.map (compile_stmt depth scope) stmts with
    | [ s ] -> s
    | ss ->
        let ss = Array.of_list ss in
        fun env ->
          for k = 0 to Array.length ss - 1 do
            (Array.unsafe_get ss k) env
          done
  and compile_stmt depth scope = function
    | For { v; extent; kind; body } ->
        slots := max !slots (depth + 1);
        let body = compile_stmts (depth + 1) ((v, depth) :: scope) body in
        let arm, name =
          match kind with
          | Serial -> (0, "serial")
          | Unrolled -> (1, "unrolled")
          | Vectorized -> (2, "vectorized")
        in
        fun env ->
          if not armed.(arm) then begin
            armed.(arm) <- true;
            Cov.arm ~file "loop" name
          end;
          for k = 0 to extent - 1 do
            Array.unsafe_set env depth k;
            body env
          done
    | Store { index; value } ->
        let index = compile_iexpr scope index
        and value = compile_vexpr scope inputs value in
        fun env ->
          let idx = index env in
          if idx < 0 || idx >= Array.length out then begin
            Cov.hit ~file "oob_store";
            raise (Tir_error "out-of-bounds store")
          end
          else Array.unsafe_set out idx (value env)
  in
  let body = compile_stmts 0 [] f.body in
  body (Array.make !slots 0)
