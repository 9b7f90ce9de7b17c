(* Tests for the constraint-solving substrate (lib/smt). *)

module E = Nnsmith_smt.Expr
module F = Nnsmith_smt.Formula
module I = Nnsmith_smt.Interval
module M = Nnsmith_smt.Model
module S = Nnsmith_smt.Solver

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Expr                                                                *)

let test_const_folding () =
  check_int "add" 5 (match E.(int 2 + int 3) with E.Const n -> n | _ -> -1);
  check_int "mul" 6 (match E.(int 2 * int 3) with E.Const n -> n | _ -> -1);
  check_int "sub" (-1) (match E.(int 2 - int 3) with E.Const n -> n | _ -> -1);
  check_int "div" 2 (match E.(int 7 / int 3) with E.Const n -> n | _ -> -1);
  check_int "mod" 1 (match E.(int 7 mod int 3) with E.Const n -> n | _ -> -1);
  check_int "min" 2 (match E.min_ (E.int 2) (E.int 3) with E.Const n -> n | _ -> -1);
  check_int "max" 3 (match E.max_ (E.int 2) (E.int 3) with E.Const n -> n | _ -> -1)

let test_unit_laws () =
  let x = E.fresh "x" in
  check "x+0" true (E.equal E.(x + zero) x);
  check "0+x" true (E.equal E.(zero + x) x);
  check "x*1" true (E.equal E.(x * one) x);
  check "x*0" true (E.equal E.(x * zero) E.zero);
  check "x/1" true (E.equal E.(x / one) x);
  check "x mod 1" true (E.equal E.(x mod one) E.zero);
  check "x-0" true (E.equal E.(x - zero) x);
  check "neg neg" true (E.equal (E.neg (E.neg x)) x)

let test_floor_division () =
  check_int "7/2" 3 (E.fdiv 7 2);
  check_int "-7/2" (-4) (E.fdiv (-7) 2);
  check_int "7/-2" (-4) (E.fdiv 7 (-2));
  check_int "-7/-2" 3 (E.fdiv (-7) (-2));
  check_int "mod pos" 1 (E.fmod 7 2);
  check_int "mod neg num" 1 (E.fmod (-7) 2);
  check_int "mod neg den" (-1) (E.fmod 7 (-2));
  check_int "ceil -7/2" (-3) (E.cdiv (-7) 2);
  check_int "ceil 7/2" 4 (E.cdiv 7 2);
  check_int "min_int / -1" min_int (E.fdiv min_int (-1));
  check_int "min_int mod -1" 0 (E.fmod min_int (-1))

let test_eval () =
  let x = E.fresh_var "x" and y = E.fresh_var "y" in
  let env v = if v = x then 5 else if v = y then 3 else 0 in
  let e = E.(Var x * Var y + int 2) in
  check_int "eval" 17 (E.eval env e);
  check_int "min" 3 (E.eval env (E.min_ (E.Var x) (E.Var y)));
  check_int "neg" (-5) (E.eval env (E.neg (E.Var x)));
  Alcotest.check_raises "div0" Division_by_zero (fun () ->
      ignore (E.eval env E.(Var x / zero)))

let test_vars () =
  let x = E.fresh "x" and y = E.fresh "y" in
  check_int "distinct" 2 (List.length (E.vars E.(x + (y * x))));
  check_int "const" 0 (List.length (E.vars (E.int 42)))

(* The fresh-variable counter is process-global, so this uses only
   variables minted after the reset. *)
let test_hc_clear_restarts_ids () =
  ignore (E.fresh_var "before");
  S.cache_clear ();
  E.hc_clear ();
  let a = E.fresh_var "a" in
  let b = E.fresh_var "b" in
  check_int "first id" 1 a.E.id;
  check_int "second id" 2 b.E.id;
  check "fresh mints a Var" true
    (match E.fresh "c" with E.Var v -> v.E.id = 3 | _ -> false)

(* The two-division definitions [Expr]'s one-division ones replace. *)
let fdiv2 a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let cdiv2 a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) = (b < 0) then q + 1 else q

let fmod2 a b =
  let r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then r + b else r

let qcheck_one_division =
  let operand =
    QCheck.Gen.(
      frequency
        [
          (3, int_range (-1000) 1000);
          (2, oneofl [ 1; -1; 0; min_int; max_int; min_int + 1; max_int - 1 ]);
          (1, map (fun k -> min_int + k) (int_range 0 1000));
          (1, map (fun k -> max_int - k) (int_range 0 1000));
          (2, int);
        ])
  in
  QCheck.Test.make ~name:"fdiv/cdiv/fmod = two-division definitions"
    ~count:2000
    (QCheck.make ~print:QCheck.Print.(pair int int) (QCheck.Gen.pair operand operand))
    (fun (a, b) ->
      if b = 0 then
        List.for_all
          (fun f ->
            match f a b with
            | _ -> false
            | exception Division_by_zero -> true)
          [ E.fdiv; E.cdiv; E.fmod ]
      else
        E.fdiv a b = fdiv2 a b && E.cdiv a b = cdiv2 a b && E.fmod a b = fmod2 a b)

let qcheck_fdiv_fmod =
  QCheck.Test.make ~name:"fdiv/fmod euclidean identity" ~count:500
    QCheck.(pair (int_range (-1000) 1000) (int_range (-100) 100))
    (fun (a, b) ->
      QCheck.assume (b <> 0);
      let q = E.fdiv a b and r = E.fmod a b in
      a = (b * q) + r && (b <= 0 || (r >= 0 && r < b)) && (b >= 0 || (r <= 0 && r > b)))

(* ------------------------------------------------------------------ *)
(* Formula                                                             *)

let test_formula_folding () =
  check "const le" true (F.(E.int 1 <= E.int 2) = F.True);
  check "const lt false" true (F.(E.int 3 < E.int 2) = F.False);
  check "and short" true (F.and_ [ F.True; F.False ] = F.False);
  check "or short" true (F.or_ [ F.False; F.True ] = F.True);
  check "and empty" true (F.and_ [] = F.True);
  check "or empty" true (F.or_ [] = F.False);
  check "not not" true (F.not_ (F.not_ F.True) = F.True)

let test_formula_eval () =
  let x = E.fresh_var "x" in
  let env _ = 4 in
  check "x <= 5" true (F.eval env F.(E.Var x <= E.int 5));
  check "x > 5" false (F.eval env F.(E.Var x > E.int 5));
  check "x = 4" true (F.eval env F.(E.Var x = E.int 4));
  check "x <> 4" false (F.eval env F.(E.Var x <> E.int 4));
  check "range" true (F.eval env (F.in_range (E.Var x) ~lo:1 ~hi:10));
  (* division by zero inside an atom is falsity, not an exception *)
  check "div0 atom" false (F.eval env F.(E.(Var x / zero) = E.int 1))

let test_formula_vars () =
  let x = E.fresh "x" and y = E.fresh "y" in
  let f = F.and_ [ F.(x <= y); F.(y < E.int 5) ] in
  check_int "two vars" 2 (List.length (F.vars f));
  check_int "atoms" 2 (List.length (F.atoms f))

(* Built twice from the same variables: equal, but no subterm shared. *)
let test_formula_normalize () =
  let x = E.fresh "x" and y = E.fresh "y" in
  let le () = F.(E.(x * int 2) <= E.(y + int 1)) in
  let a = le () and b = F.(y < E.int 5) and c = F.(x <> E.int 3) in
  let same l1 l2 = List.equal F.equal l1 l2 in
  let abc = F.normalize [ a; b; c ] in
  check_int "three members" 3 (List.length abc);
  check "nested And flattened" true
    (same (F.normalize [ F.And [ a; F.And [ b; c ] ] ]) abc);
  check "True dropped" true (same (F.normalize [ F.True; a; F.True ]) [ a ]);
  check "False gives [ff]" true
    (same (F.normalize [ a; F.And [ b; F.False ]; c ]) [ F.ff ]);
  check "separately built duplicates merged" true
    (a != le () && same (F.normalize [ a; le (); b; c; le () ]) abc);
  List.iter
    (fun perm -> check "input order" true (same (F.normalize perm) abc))
    [ [ c; b; a ]; [ b; a; c ]; [ c; F.And [ a; b ] ]; [ F.And [ b; c ]; a ] ]

(* ------------------------------------------------------------------ *)
(* Interval                                                            *)

let test_interval_basics () =
  let i = I.make 2 5 in
  check "mem" true (I.mem 3 i);
  check "not mem" false (I.mem 6 i);
  check_int "width" 3 (I.width i);
  check "point" true (I.is_point (I.point 7) = Some 7);
  check "inter none" true (I.inter (I.make 0 1) (I.make 2 3) = None);
  check "inter some" true
    (match I.inter (I.make 0 5) (I.make 3 9) with
    | Some j -> I.equal j (I.make 3 5)
    | None -> false);
  Alcotest.check_raises "bad make" (Invalid_argument "Interval.make: lo > hi")
    (fun () -> ignore (I.make 3 2))

let test_interval_arith () =
  check "add" true (I.equal (I.add (I.make 1 2) (I.make 10 20)) (I.make 11 22));
  check "sub" true (I.equal (I.sub (I.make 1 2) (I.make 10 20)) (I.make (-19) (-8)));
  check "mul" true (I.equal (I.mul (I.make (-2) 3) (I.make 4 5)) (I.make (-10) 15));
  check "neg" true (I.equal (I.neg (I.make 1 2)) (I.make (-2) (-1)));
  check "div pos" true (I.equal (I.div (I.make 10 20) (I.make 2 5)) (I.make 2 10));
  check "div through 0 = top" true (I.equal (I.div (I.make 1 2) (I.make (-1) 1)) I.top);
  check "rem pos" true (I.equal (I.rem (I.make 0 100) (I.make 1 7)) (I.make 0 6))

let test_interval_saturation () =
  let huge = I.make (I.big - 1) I.big in
  let product = I.mul huge huge in
  check "saturated above" true (product.I.hi = I.big);
  check "hull" true (I.equal (I.hull (I.make 0 1) (I.make 5 9)) (I.make 0 9))

let qcheck_interval_mul_sound =
  QCheck.Test.make ~name:"interval mul soundness" ~count:500
    QCheck.(
      quad (int_range (-50) 50) (int_range (-50) 50) (int_range (-50) 50)
        (int_range (-50) 50))
    (fun (a, b, c, d) ->
      let ia = I.make (min a b) (max a b) and ib = I.make (min c d) (max c d) in
      let x = min a b + ((max a b - min a b) / 2)
      and y = min c d + ((max c d - min c d) / 2) in
      I.mem (x * y) (I.mul ia ib))

let qcheck_interval_div_sound =
  QCheck.Test.make ~name:"interval div soundness" ~count:500
    QCheck.(
      quad (int_range (-100) 100) (int_range (-100) 100) (int_range 1 20)
        (int_range 1 20))
    (fun (a, b, c, d) ->
      let ia = I.make (min a b) (max a b) and ib = I.make (min c d) (max c d) in
      I.mem (E.fdiv (min a b) (min c d)) (I.div ia ib)
      && I.mem (E.fdiv (max a b) (max c d)) (I.div ia ib))

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)

let solve fs = S.solve fs

let test_solver_simple_sat () =
  let x = E.fresh "x" and y = E.fresh "y" in
  match solve F.[ E.(x + y) = E.int 10; x < y; E.one <= x ] with
  | Some m ->
      let xv = M.eval_expr m x and yv = M.eval_expr m y in
      check "sum" true (xv + yv = 10);
      check "lt" true (xv < yv);
      check "pos" true (xv >= 1)
  | None -> Alcotest.fail "expected SAT"

let test_solver_unsat () =
  let x = E.fresh "x" in
  check "unsat" true (solve F.[ x < E.int 1; x > E.int 1 ] = None);
  check "unsat eq" true (solve F.[ x = E.int 1; x = E.int 2 ] = None)

let test_solver_minimal_model_bias () =
  (* Z3-style boundary values: an unconstrained dim concretises to its lower
     bound — the behaviour motivating attribute binning. *)
  let d = E.fresh "d" in
  match solve F.[ E.one <= d ] with
  | Some m -> check_int "lower bound" 1 (M.eval_expr m d)
  | None -> Alcotest.fail "expected SAT"

let test_solver_products () =
  (* Reshape-style constraint: product equality. *)
  let a = E.fresh "a" and b = E.fresh "b" in
  match solve F.[ E.(a * b) = E.int 12; E.int 2 <= a; E.int 2 <= b ] with
  | Some m ->
      check "product" true (M.eval_expr m a * M.eval_expr m b = 12)
  | None -> Alcotest.fail "expected SAT"

let test_solver_conv_shapes () =
  (* (h + 2p - k)/s + 1 = 5 with the usual positivity side conditions. *)
  let h = E.fresh "h" and k = E.fresh "k" and s = E.fresh "s"
  and p = E.fresh ~lo:0 "p" in
  let out = E.((h + (int 2 * p) - k) / s + one) in
  match
    solve
      F.[
        E.one <= k; k <= E.int 7; E.one <= s; s <= E.int 3; E.zero <= p;
        p <= E.int 3; k <= E.(h + (int 2 * p)); out = E.int 5;
      ]
  with
  | Some m ->
      let hv = M.eval_expr m h and kv = M.eval_expr m k
      and sv = M.eval_expr m s and pv = M.eval_expr m p in
      check_int "conv out" 5 (E.fdiv (hv + (2 * pv) - kv) sv + 1)
  | None -> Alcotest.fail "expected SAT"

let test_solver_disjunction () =
  let x = E.fresh "x" in
  match solve [ F.or_ F.[ x = E.int 42; x = E.int 43 ]; F.(x <> E.int 42) ] with
  | Some m -> check_int "picked 43" 43 (M.eval_expr m x)
  | None -> Alcotest.fail "expected SAT"

let test_solver_negation () =
  let x = E.fresh ~lo:0 ~hi:10 "x" in
  match solve [ F.not_ F.(x <= E.int 5) ] with
  | Some m -> check "x > 5" true (M.eval_expr m x > 5)
  | None -> Alcotest.fail "expected SAT"

let test_try_add_rollback () =
  let s = S.create () in
  let x = E.fresh "x" in
  check "first" true (S.try_add_constraints s F.[ x <= E.int 5 ]);
  check "conflict rolled back" false (S.try_add_constraints s F.[ x > E.int 9 ]);
  check "still consistent" true (S.try_add_constraints s F.[ x >= E.int 2 ]);
  match S.model s with
  | Some m ->
      let v = M.eval_expr m x in
      check "within" true (v >= 2 && v <= 5)
  | None -> Alcotest.fail "expected model"

let test_incremental_model_updates () =
  let s = S.create () in
  let x = E.fresh "x" in
  check "a" true (S.try_add_constraints s F.[ E.one <= x ]);
  check "b" true (S.try_add_constraints s F.[ E.int 7 <= x ]);
  match S.model s with
  | Some m -> check "respects later bound" true (M.eval_expr m x >= 7)
  | None -> Alcotest.fail "expected model"

let test_step_limit_unknown () =
  (* A hard system under a tiny budget must report Unknown, not loop. *)
  let s = S.create ~max_steps:2 () in
  let vs = List.init 8 (fun i -> E.fresh (Printf.sprintf "v%d" i)) in
  S.assert_ s F.(E.sum vs = E.int 1000);
  List.iter (fun v -> S.assert_ s F.(E.int 2 <= v)) vs;
  S.assert_ s F.(E.(List.nth vs 0 * List.nth vs 1) = E.int 299);
  check "unknown or unsat" true (S.check s <> S.Sat)

let test_mod_constraint () =
  let x = E.fresh "x" in
  match solve F.[ E.(x mod int 4) = E.int 3; E.int 10 <= x; x <= E.int 20 ] with
  | Some m ->
      let v = M.eval_expr m x in
      check "mod" true (v mod 4 = 3 && v >= 10 && v <= 20)
  | None -> Alcotest.fail "expected SAT"

let test_interleaved_solvers () =
  (* Regression for the old top-level [changed : bool ref]: two incremental
     solvers refined in alternation must not leak propagation state into
     each other, and a one-shot solve in the middle must not reset either. *)
  let s1 = S.create () and s2 = S.create () in
  let x = E.fresh "x" and y = E.fresh "y" in
  check "s1 a" true (S.try_add_constraints s1 F.[ E.int 3 <= x ]);
  check "s2 a" true (S.try_add_constraints s2 F.[ y <= E.int 4 ]);
  check "s1 b" true (S.try_add_constraints s1 F.[ x <= E.int 9 ]);
  (* a nested one-shot solve between the incremental refinements *)
  let z = E.fresh "z" in
  (match solve F.[ E.(z * int 3) = E.int 12 ] with
  | Some m -> check_int "nested" 4 (M.eval_expr m z)
  | None -> Alcotest.fail "nested solve failed");
  check "s2 b" true (S.try_add_constraints s2 F.[ E.int 2 <= y ]);
  check "s1 conflict" false (S.try_add_constraints s1 F.[ x > E.int 20 ]);
  (match S.model s1 with
  | Some m ->
      let v = M.eval_expr m x in
      check "s1 window" true (v >= 3 && v <= 9)
  | None -> Alcotest.fail "s1 lost its model");
  match S.model s2 with
  | Some m ->
      let v = M.eval_expr m y in
      check "s2 window" true (v >= 2 && v <= 4)
  | None -> Alcotest.fail "s2 lost its model"

let test_concurrent_domain_solves () =
  (* The solver must be callable from several domains at once: no shared
     mutable propagation state, and fresh-variable ids never collide. *)
  let solve_many salt =
    List.init 40 (fun i ->
        let x = E.fresh "x" and y = E.fresh "y" in
        let n = 6 + ((i + salt) mod 17) in
        let fs =
          F.[ E.(x + y) = E.int n; E.one <= x; x < y ]
        in
        match S.solve fs with
        | None -> false
        | Some m -> List.for_all (M.eval_formula m) fs)
  in
  let d1 = Domain.spawn (fun () -> solve_many 1)
  and d2 = Domain.spawn (fun () -> solve_many 1000) in
  let ok = solve_many 500 @ Domain.join d1 @ Domain.join d2 in
  check "all sat and sound" true (List.for_all Fun.id ok)

let qcheck_solver_sound =
  (* Any model returned must actually satisfy the constraints. *)
  QCheck.Test.make ~name:"solver models satisfy constraints" ~count:100
    QCheck.(
      quad (int_range 1 30) (int_range 1 30) (int_range 1 8) (int_range 0 3))
    (fun (a, b, c, d) ->
      let x = E.fresh "x" and y = E.fresh "y" in
      let fs =
        F.[
          E.int a <= x; x <= E.int (a + 20); E.int b <= y;
          E.(x + y) <= E.int (a + b + 25);
          E.((x * int c) + int d) <= E.int ((a + 21) * c);
        ]
      in
      match solve fs with
      | None -> true (* UNSAT/unknown claims are not checked here *)
      | Some m -> List.for_all (M.eval_formula m) fs)

(* ------------------------------------------------------------------ *)
(* Propagation oracle                                                  *)

(* The solver's propagation as it was before watch lists and the compiled
   engine: persistent map domains, every round re-applies every item, and
   [refine] re-evaluates [fwd] at every level.  The engine must make
   exactly the same narrowing steps: the same final domains, the same
   Conflicts, and the same propagations stopped at the 64-round cap.
   [note] is called with each variable a step narrows. *)
module Oracle = struct
  module Imap = Map.Make (Int)

  exception Conflict

  let mk lo hi =
    match I.make_opt lo hi with Some i -> i | None -> raise Conflict

  let dom d (v : E.var) =
    match Imap.find_opt v.id d with Some (_, i) -> i | None -> I.make v.lo v.hi

  let fwd d e = I.eval_expr ~lookup:(dom d) e
  let cdiv a b = -E.fdiv (-a) b

  let mul_arg_target (iy : I.t) (tgt : I.t) =
    if iy.lo <= 0 && iy.hi >= 0 then None
    else
      let corners f =
        [ f tgt.I.lo iy.I.lo; f tgt.lo iy.hi; f tgt.hi iy.lo; f tgt.hi iy.hi ]
      in
      let lo = List.fold_left min max_int (corners E.fdiv)
      and hi = List.fold_left max min_int (corners cdiv) in
      I.make_opt lo hi

  let rec refine ~note d (e : E.t) (tgt : I.t) =
    match I.inter (fwd d e) tgt with
    | None -> raise Conflict
    | Some tgt -> (
        match e with
        | Const _ -> d
        | Var v ->
            if I.equal (dom d v) tgt then d
            else begin
              note v;
              Imap.add v.id (v, tgt) d
            end
        | Add (x, y) ->
            let d = refine ~note d x (I.sub tgt (fwd d y)) in
            refine ~note d y (I.sub tgt (fwd d x))
        | Sub (x, y) ->
            let d = refine ~note d x (I.add tgt (fwd d y)) in
            refine ~note d y (I.sub (fwd d x) tgt)
        | Neg x -> refine ~note d x (I.neg tgt)
        | Mul (x, y) -> (
            let d =
              match mul_arg_target (fwd d y) tgt with
              | Some t -> refine ~note d x t
              | None -> d
            in
            match mul_arg_target (fwd d x) tgt with
            | Some t -> refine ~note d y t
            | None -> d)
        | Div (x, y) ->
            let iy = fwd d y in
            if iy.lo >= 1 then
              let lo_x = min (tgt.lo * iy.lo) (tgt.lo * iy.hi)
              and hi_x =
                max ((tgt.hi + 1) * iy.lo) ((tgt.hi + 1) * iy.hi) - 1
              in
              refine ~note d x (mk lo_x hi_x)
            else d
        | Mod (_, _) -> d
        | Min (x, y) ->
            let d = refine ~note d x (mk tgt.lo I.big) in
            let d = refine ~note d y (mk tgt.lo I.big) in
            let ix = fwd d x and iy = fwd d y in
            if ix.lo > tgt.hi then refine ~note d y (mk (-I.big) tgt.hi)
            else if iy.lo > tgt.hi then refine ~note d x (mk (-I.big) tgt.hi)
            else d
        | Max (x, y) ->
            let d = refine ~note d x (mk (-I.big) tgt.hi) in
            let d = refine ~note d y (mk (-I.big) tgt.hi) in
            let ix = fwd d x and iy = fwd d y in
            if ix.hi < tgt.lo then refine ~note d y (mk tgt.lo I.big)
            else if iy.hi < tgt.lo then refine ~note d x (mk tgt.lo I.big)
            else d)

  let narrow_atom ~note d (f : F.t) =
    match f with
    | Cmp (Le, a, b) ->
        let ib = fwd d b in
        let d = refine ~note d a (mk (-I.big) ib.hi) in
        refine ~note d b (mk (fwd d a).lo I.big)
    | Cmp (Lt, a, b) ->
        let ib = fwd d b in
        let d = refine ~note d a (mk (-I.big) (ib.hi - 1)) in
        refine ~note d b (mk ((fwd d a).lo + 1) I.big)
    | Cmp (Eq, a, b) -> (
        match I.inter (fwd d a) (fwd d b) with
        | None -> raise Conflict
        | Some m -> refine ~note (refine ~note d a m) b m)
    | Cmp (Ne, a, b) -> (
        let ia = fwd d a and ib = fwd d b in
        match (I.is_point ia, I.is_point ib) with
        | Some x, Some y -> if x = y then raise Conflict else d
        | Some x, None ->
            if x = ib.lo then refine ~note d b (mk (ib.lo + 1) ib.hi)
            else if x = ib.hi then refine ~note d b (mk ib.lo (ib.hi - 1))
            else d
        | None, Some y ->
            if y = ia.lo then refine ~note d a (mk (ia.lo + 1) ia.hi)
            else if y = ia.hi then refine ~note d a (mk ia.lo (ia.hi - 1))
            else d
        | None, None -> d)
    | True | False | And _ | Or _ | Not _ -> d

  let rec split_conj atoms ors (f : F.t) =
    match f with
    | True -> (atoms, ors)
    | False -> raise Exit
    | Cmp _ -> (f :: atoms, ors)
    | And fs ->
        List.fold_left (fun (a, o) g -> split_conj a o g) (atoms, ors) fs
    | Or _ -> (atoms, f :: ors)
    | Not _ -> assert false

  (* One item: an atom narrows; a disjunction narrows with its last
     unrefuted disjunct. *)
  let apply ~note d (f : F.t) =
    match f with
    | Cmp _ -> narrow_atom ~note d f
    | Or disjuncts -> (
        match
          List.filter
            (fun g -> I.eval_formula ~lookup:(dom d) g <> I.F)
            disjuncts
        with
        | [] -> raise Conflict
        | [ g ] -> (
            match split_conj [] [] g with
            | atoms', _ -> List.fold_left (narrow_atom ~note) d atoms'
            | exception Exit -> raise Conflict)
        | _ :: _ :: _ -> d)
    | True | False | And _ | Not _ -> d

  let propagate ~rounds ~capped d items =
    let ch = ref false in
    let note _ = ch := true in
    let rec loop d rounds =
      if rounds = 0 then begin
        incr capped;
        d
      end
      else begin
        ch := false;
        let d = List.fold_left (apply ~note) d items in
        if !ch then loop d (rounds - 1) else d
      end
    in
    loop d rounds

  (* The search's branching step, then propagation, for each pin; a pin
     that conflicts leaves the domains as they were before it. *)
  let run ?(rounds = 64) ~init atoms ors pins =
    let capped = ref 0 in
    let items = atoms @ ors in
    let d0 =
      List.fold_left
        (fun d ((v : E.var), i) -> Imap.add v.id (v, i) d)
        Imap.empty init
    in
    let bindings d = Some (List.map snd (Imap.bindings d)) in
    let stages =
      match propagate ~rounds ~capped d0 items with
      | exception Conflict -> [ None ]
      | d ->
          let pin (d, acc) ((v : E.var), n) =
            match
              propagate ~rounds ~capped
                (refine ~note:ignore d (Var v) (I.point n))
                items
            with
            | d' -> (d', bindings d' :: acc)
            | exception Conflict -> (d, None :: acc)
          in
          List.rev (snd (List.fold_left pin (d, [ bindings d ]) pins))
    in
    (stages, !capped)
end

(* The solver's search as it was before the compiled engine: persistent
   map domains, watch lists with a dirty-flag array copied for every
   search child, and [Oracle]'s narrowing.  A solve must take the same
   search steps, propagation visits, capped propagations and backtracks,
   and return the same verdict and model. *)
module Search_oracle = struct
  open Oracle

  type work = {
    mutable visits : int;
    mutable capped : int;
    mutable backtracks : int;
  }

  type plan = { items : F.t array; watchers : (int, int list) Hashtbl.t }

  let plan atoms ors =
    let items = Array.of_list (atoms @ ors) in
    let watchers = Hashtbl.create 16 in
    let watch k (v : E.var) =
      let ks = Option.value ~default:[] (Hashtbl.find_opt watchers v.id) in
      Hashtbl.replace watchers v.id (k :: ks)
    in
    Array.iteri (fun k f -> List.iter (watch k) (F.vars f)) items;
    { items; watchers }

  let mark p dirty (v : E.var) =
    match Hashtbl.find_opt p.watchers v.id with
    | Some ks -> List.iter (fun k -> dirty.(k) <- true) ks
    | None -> ()

  let propagate ~work p dirty d =
    let note = mark p dirty in
    let rec loop d0 rounds =
      if rounds = 0 then begin
        work.capped <- work.capped + 1;
        d0
      end
      else begin
        let d = ref d0 in
        for k = 0 to Array.length p.items - 1 do
          if dirty.(k) then begin
            work.visits <- work.visits + 1;
            let before = !d in
            d := apply ~note before p.items.(k);
            if !d == before then dirty.(k) <- false
          end
        done;
        if !d == d0 then d0 else loop !d (rounds - 1)
      end
    in
    loop d 64

  let branch p dirty d (v : E.var) n =
    let dirty = Array.copy dirty in
    (refine ~note:(mark p dirty) d (Var v) (I.point n), dirty)

  let complement c a b =
    match (c : F.cmp) with
    | F.Eq -> F.Cmp (Ne, a, b)
    | Ne -> Cmp (Eq, a, b)
    | Le -> Cmp (Lt, b, a)
    | Lt -> Cmp (Le, b, a)

  let rec nnf pos (f : F.t) : F.t =
    match f with
    | True -> if pos then True else False
    | False -> if pos then False else True
    | Cmp (c, a, b) -> if pos then f else complement c a b
    | And fs ->
        let gs = List.map (nnf pos) fs in
        if pos then F.and_ gs else F.or_ gs
    | Or fs ->
        let gs = List.map (nnf pos) fs in
        if pos then F.or_ gs else F.and_ gs
    | Not g -> nnf (not pos) g

  let candidates rng (i : I.t) =
    if I.width i <= 16 then List.init (i.hi - i.lo + 1) (fun k -> i.lo + k)
    else
      let r () = i.lo + Random.State.int rng (I.width i + 1) in
      let mid = i.lo + ((i.hi - i.lo) / 2) in
      [ i.lo; i.lo + 1; i.lo + 2; r (); r (); mid; i.hi ]
      |> List.sort_uniq Int.compare
      |> List.filter (fun v -> I.mem v i)
      |> List.sort Int.compare

  let disjunct_hints formulas =
    let hints = Hashtbl.create 8 in
    let add (v : E.var) c =
      let prev = Option.value ~default:[] (Hashtbl.find_opt hints v.id) in
      if not (List.mem c prev) then Hashtbl.replace hints v.id (c :: prev)
    in
    let rec scan under_or (f : F.t) =
      match f with
      | Cmp (Eq, Var v, Const c) | Cmp (Eq, Const c, Var v) when under_or ->
          add v c
      | And fs -> List.iter (scan under_or) fs
      | Or fs -> List.iter (scan true) fs
      | Not g -> scan under_or g
      | True | False | Cmp _ -> ()
    in
    List.iter (scan false) formulas;
    hints

  exception Step_limit

  let solve_formulas ~max_steps ~rng ~vars ~work formulas =
    let steps = ref 0 and incomplete = ref false in
    let nnf_formulas = List.map (nnf true) formulas in
    match
      List.fold_left (fun (a, o) f -> split_conj a o f) ([], []) nnf_formulas
    with
    | exception Exit -> (S.Unsat, None, 0)
    | atoms, ors -> (
        let hints = disjunct_hints nnf_formulas in
        let p = plan atoms ors in
        let check_leaf d =
          let m =
            List.fold_left (fun m v -> M.add v (dom d v).I.lo m) M.empty vars
          in
          if List.for_all (M.eval_formula m) formulas then Some m else None
        in
        let rec search d dirty =
          incr steps;
          if !steps > max_steps then raise Step_limit;
          match propagate ~work p dirty d with
          | exception Conflict ->
              work.backtracks <- work.backtracks + 1;
              None
          | d -> (
              let unassigned =
                List.filter_map
                  (fun v ->
                    let i = dom d v in
                    if i.I.lo = i.hi then None else Some (v, i))
                  vars
              in
              match unassigned with
              | [] -> check_leaf d
              | first :: rest ->
                  let v, i =
                    List.fold_left
                      (fun ((_, bi) as best) ((_, ci) as cur) ->
                        if I.width ci < I.width bi then cur else best)
                      first rest
                  in
                  if I.width i > 16 then incomplete := true;
                  let hinted =
                    Option.value ~default:[] (Hashtbl.find_opt hints v.E.id)
                    |> List.filter (fun c -> I.mem c i)
                  in
                  let try_value found value =
                    match found with
                    | Some _ -> found
                    | None -> (
                        match branch p dirty d v value with
                        | d', dirty' -> search d' dirty'
                        | exception Conflict ->
                            work.backtracks <- work.backtracks + 1;
                            None)
                  in
                  List.fold_left try_value None
                    (List.sort_uniq Int.compare (hinted @ candidates rng i)))
        in
        match search Imap.empty (Array.make (Array.length p.items) true) with
        | Some m -> (S.Sat, Some m, !steps)
        | None -> ((if !incomplete then S.Unknown else S.Unsat), None, !steps)
        | exception Step_limit -> (S.Unknown, None, !steps))

  (* A check on a fresh solver: the components in order, the first that
     is not Sat deciding. *)
  let check ~max_steps fs =
    let work = { visits = 0; capped = 0; backtracks = 0 } in
    let rec go model steps = function
      | [] -> (S.Sat, Some model, steps)
      | (comp, vars, seed) :: rest -> (
          let rng = Random.State.make [| seed |] in
          match solve_formulas ~max_steps ~rng ~vars ~work comp with
          | S.Sat, m, st ->
              let model =
                List.fold_left
                  (fun acc (v, n) -> M.add v n acc)
                  model
                  (match m with Some m -> M.bindings m | None -> [])
              in
              go model (steps + st) rest
          | r, _, st -> (r, None, steps + st))
    in
    let r, m, steps = go M.empty 0 (S.components_for_test ~max_steps fs) in
    (r, m, steps, work)
end

let show_dom ((v : E.var), i) = v.name ^ Fmt.to_to_string I.pp i

let show_outcome (stages, capped) =
  let stage = function
    | None -> "conflict"
    | Some bs -> String.concat " " (List.map show_dom bs)
  in
  Printf.sprintf "[%s] (capped %d)"
    (String.concat " | " (List.map stage stages))
    capped

(* Random terms over [vars] built with the raw constructors, so no smart
   constructor folds a case away; every [Expr] constructor occurs. *)
let rec gen_term ?(const = QCheck.Gen.int_range (-4) 9) vars depth =
  let open QCheck.Gen in
  let leaf =
    oneof [ map (fun n -> E.Const n) const; map (fun v -> E.Var v) (oneofl vars) ]
  in
  if depth = 0 then leaf
  else
    let sub = gen_term ~const vars (depth - 1) in
    let bin f = map2 f sub sub in
    frequency
      [
        (3, leaf);
        (1, bin (fun a b -> E.Add (a, b)));
        (1, bin (fun a b -> E.Sub (a, b)));
        (2, bin (fun a b -> E.Mul (a, b)));
        (1, bin (fun a b -> E.Div (a, b)));
        (1, bin (fun a b -> E.Mod (a, b)));
        (1, map (fun a -> E.Neg a) sub);
        (1, bin (fun a b -> E.Min (a, b)));
        (1, bin (fun a b -> E.Max (a, b)));
      ]

let gen_atom vars =
  QCheck.Gen.(
    map3
      (fun c a b -> F.Cmp (c, a, b))
      (oneofl F.[ Eq; Ne; Le; Lt ])
      (gen_term vars 2) (gen_term vars 2))

let gen_disjunct vars =
  let open QCheck.Gen in
  let atom = gen_atom vars in
  frequency
    [
      (4, gen_atom vars);
      (2, map (fun atoms -> F.And atoms) (list_size (int_range 2 3) atom));
      (1, map (fun atoms -> F.Or atoms) (list_size (int_range 2 3) atom));
      (1, oneofl F.[ True; False ]);
    ]

type prop_case = {
  rounds : int;
  init : (E.var * I.t) list;
  atoms : F.t list;
  ors : F.t list;
  pins : (E.var * int) list;
}

let gen_prop_case =
  let open QCheck.Gen in
  let gen_var k =
    map2
      (fun wide (lo, w) ->
        if wide then E.fresh_var (Printf.sprintf "v%d" k)
        else E.fresh_var ~lo ~hi:(lo + w) (Printf.sprintf "v%d" k))
      (frequencyl [ (1, true); (3, false) ])
      (pair (int_range (-20) 20) (int_range 0 40))
  in
  int_range 1 4 >>= fun nv ->
  flatten_l (List.init nv gen_var) >>= fun vars ->
  let gen_init (v : E.var) =
    map2
      (fun keep (a, b) ->
        let lo = v.lo + (a mod (v.hi - v.lo + 1)) in
        let hi = lo + (b mod (v.hi - lo + 1)) in
        if keep then None else Some (v, I.make lo hi))
      bool (pair nat nat)
  in
  let gen_pin =
    oneofl vars >>= fun (v : E.var) ->
    map
      (fun n -> (v, n))
      (int_range (v.lo - 1) (Int.min (v.hi + 1) (v.lo + 60)))
  in
  let disjuncts = list_size (int_range 2 3) (gen_disjunct vars) in
  (* a low round cap compares the domains after every round, not only
     at the fixpoint; up to five pins let a pin that conflicts, and is
     undone, be followed by further pins *)
  oneofl [ 1; 2; 3; 64 ] >>= fun rounds ->
  map4
    (fun init atoms ors pins ->
      { rounds; init = List.filter_map Fun.id init; atoms; ors; pins })
    (flatten_l (List.map gen_init vars))
    (list_size (int_range 1 6) (gen_atom vars))
    (list_size (int_range 0 2) (map (fun ds -> F.Or ds) disjuncts))
    (list_size (int_range 0 5) gen_pin)

let print_prop_case c =
  Printf.sprintf "rounds=%d init=[%s] atoms=[%s] ors=[%s] pins=[%s]" c.rounds
    (String.concat "; " (List.map show_dom c.init))
    (String.concat "; " (List.map F.to_string c.atoms))
    (String.concat "; " (List.map F.to_string c.ors))
    (String.concat "; "
       (List.map
          (fun ((v : E.var), n) -> Printf.sprintf "%s=%d" v.name n)
          c.pins))

let same_outcome (o1, c1) (o2, c2) =
  c1 = c2
  && List.equal
       (Option.equal
          (List.equal (fun ((v1 : E.var), i1) ((v2 : E.var), i2) ->
               v1.id = v2.id && I.equal i1 i2)))
       o1 o2

let qcheck_propagation_matches_oracle =
  QCheck.Test.make ~name:"propagation matches the full-sweep oracle" ~count:3000
    (QCheck.make ~print:print_prop_case gen_prop_case)
    (fun c ->
      let want = Oracle.run ~rounds:c.rounds ~init:c.init c.atoms c.ors c.pins
      and got =
        S.propagate_for_test ~rounds:c.rounds ~init:c.init c.atoms c.ors c.pins
      in
      same_outcome want got
      || QCheck.Test.fail_reportf "oracle %s@.solver %s" (show_outcome want)
           (show_outcome got))

(* A pin that conflicts only after its propagation narrowed other domains
   must be undone, flags included, before the next pin: [x = 3] narrows y
   through [x + y = 10] before [x <> 3] conflicts. *)
let test_conflicting_pin_undone () =
  let x = E.fresh_var ~lo:0 ~hi:10 "x" and y = E.fresh_var ~lo:0 ~hi:10 "y" in
  let atoms =
    F.[ Cmp (Eq, E.Add (Var x, Var y), Const 10); Cmp (Ne, Var x, Const 3) ]
  in
  let pins = [ (x, 3); (y, 4); (x, 6) ] in
  let want = Oracle.run ~init:[] atoms [] pins
  and got = S.propagate_for_test ~init:[] atoms [] pins in
  Alcotest.(check string)
    "same as oracle" (show_outcome want) (show_outcome got);
  match fst got with
  | [ Some _; None; Some [ (_, ix); (_, iy) ]; Some _ ] ->
      check "y pinned after the undone pin" true
        (I.equal iy (I.point 4) && I.equal ix (I.point 6))
  | _ -> Alcotest.fail "expected: narrowed, conflict, pinned, pinned"

(* An undone pin restores the dirty flags as well as the domains.  With
   one round, the first stage stops at the cap with [y <= x] dirty:
   [x <= 5] narrowed x after it.  The pin [y = 0] cleans [y <= x], which
   narrows nothing once y = 0, before the disjunction conflicts.  The pin
   [w = 2] dirties no item, so its stage narrows y, to [0, 5] and then
   through the disjunction to 5, only if the undo left [y <= x] dirty. *)
let test_undone_pin_restores_flags () =
  let x = E.fresh_var ~lo:0 ~hi:10 "x" and y = E.fresh_var ~lo:0 ~hi:10 "y"
  and w = E.fresh_var ~lo:0 ~hi:10 "w" in
  let atoms = F.[ Cmp (Le, Var y, Var x); Cmp (Le, Var x, Const 5) ] in
  let ors = F.[ Or [ Cmp (Eq, Var y, Const 5); Cmp (Eq, Var y, Const 7) ] ] in
  let pins = [ (y, 0); (w, 2) ] in
  let want = Oracle.run ~rounds:1 ~init:[] atoms ors pins
  and got = S.propagate_for_test ~rounds:1 ~init:[] atoms ors pins in
  Alcotest.(check string)
    "same as oracle" (show_outcome want) (show_outcome got);
  match got with
  | [ Some [ (_, ix) ]; None; Some [ (_, ix'); (_, iy); (_, iw) ] ], 2 ->
      check "x narrowed, then y through the dirty item" true
        (I.equal ix (I.make 0 5)
        && I.equal ix' ix
        && I.equal iy (I.point 5)
        && I.equal iw (I.point 2))
  | _ -> Alcotest.fail "expected: capped, conflict, capped with y narrowed"

(* Saturation at ±big: x * y is [64, big] for x ∈ [1, 2^50] and
   y ∈ [64, 128], so [x * y <= z] with z ∈ [1, big] targets a range that
   contains the forward value, yet dividing big by 64 narrows x to
   [1, 2^49].  A rule skipping a subterm whose target contains its forward
   value would leave x wide. *)
let test_saturated_target_narrows () =
  let x = E.fresh_var "x" and y = E.fresh_var "y" and z = E.fresh_var "z" in
  let init =
    [ (x, I.make 1 (1 lsl 50)); (y, I.make 64 128); (z, I.make 1 I.big) ]
  in
  let atoms = F.[ Cmp (Le, E.Mul (Var x, Var y), Var z) ] in
  let want = Oracle.run ~init atoms [] [] in
  let got = S.propagate_for_test ~init atoms [] [] in
  Alcotest.(check string)
    "same as oracle" (show_outcome want) (show_outcome got);
  match fst got with
  | [ Some ((_, ix) :: _) ] ->
      check "x narrowed to [1, 2^49]" true (I.equal ix (I.make 1 (1 lsl 49)))
  | _ -> Alcotest.fail "expected narrowed domains"

(* Forward values against [Interval.eval_expr], with bounds and constants
   near ±big (saturating sums and products) and divisor intervals that
   span 0. *)
let qcheck_engine_forward_matches_interval =
  let open QCheck.Gen in
  let bound =
    frequency
      [
        (3, int_range (-20) 20);
        (1, map (fun k -> I.big - k) (int_range 0 40));
        (1, map (fun k -> k - I.big) (int_range 0 40));
        (1, map (fun k -> 1 lsl k) (int_range 20 56));
        (1, map (fun k -> -(1 lsl k)) (int_range 20 56));
      ]
  in
  let gen =
    int_range 1 3 >>= fun nv ->
    flatten_l
      (List.init nv (fun k ->
           map2
             (fun a b ->
               let v = E.fresh_var ~lo:(-I.big) ~hi:I.big (Printf.sprintf "t%d" k) in
               (v, I.make (min a b) (max a b)))
             bound bound))
    >>= fun init ->
    map (fun e -> (init, e)) (gen_term ~const:bound (List.map fst init) 4)
  in
  QCheck.Test.make ~name:"engine forward = Interval.eval_expr" ~count:2000
    (QCheck.make
       ~print:(fun (init, e) ->
         String.concat "; " (List.map show_dom init) ^ " |- " ^ E.to_string e)
       gen)
    (fun (init, e) ->
      let lookup (v : E.var) = List.assq v init in
      let want = I.eval_expr ~lookup e and got = S.eval_for_test ~init e in
      I.equal want got
      || QCheck.Test.fail_reportf "interval %a, engine %a" I.pp want I.pp got)

(* [x < y] and [y < x] over [1, 65536] refute only after ~16k rounds of
   narrowing two by two; propagation stops at the round cap with the
   domains still wide, and must stop at exactly the oracle's domains. *)
let test_propagation_round_cap () =
  let x = E.fresh_var "x" and y = E.fresh_var "y" in
  let atoms = F.[ Cmp (Lt, Var x, Var y); Cmp (Lt, Var y, Var x) ] in
  let want = Oracle.run ~init:[] atoms [] []
  and got = S.propagate_for_test ~init:[] atoms [] [] in
  Alcotest.(check string)
    "same as oracle" (show_outcome want) (show_outcome got);
  check_int "stopped at the cap" 1 (snd got);
  match fst got with
  | [ Some [ (_, ix); (_, iy) ] ] ->
      check "still wide" true (I.width ix > 60000 && I.width iy > 60000)
  | _ -> Alcotest.fail "expected two narrowed domains"

(* Constraint sets shaped like the generator's: numel caps (products of
   dims under a bound), conv output dims ((h + 2p - k) / s + 1), reshape
   products, broadcast disjunctions, and small linear, Ne and Mod atoms;
   a small step budget makes [Step_limit] fire. *)
type solve_case = { max_steps : int; fs : F.t list }

let gen_solve_case =
  let open QCheck.Gen in
  int_range 2 6 >>= fun nv ->
  flatten_l
    (List.init nv (fun k ->
         map
           (fun hi -> E.fresh_var ~lo:(if k = 0 then 0 else 1) ~hi (Printf.sprintf "d%d" k))
           (oneofl [ 4; 16; 64; 65536 ])))
  >>= fun vars ->
  let v = map (fun x -> E.Var x) (oneofl vars) in
  let c lo hi = map E.int (int_range lo hi) in
  let product = map E.product (list_size (int_range 2 4) v) in
  let conv =
    map
      (fun (h, k, s, p, o) ->
        F.and_
          F.[
            k <= E.(h + (int 2 * p));
            E.one <= s;
            E.(((h + (int 2 * p) - k) / s) + one) = o;
          ])
      (tup5 v v v v (c 1 16))
  in
  let shape =
    frequency
      [
        (3, map2 (fun p cap -> F.(p <= cap)) product (c 4 65536));
        (2, conv);
        (2, map2 (fun x y -> F.or_ F.[ x = y; x = E.one; y = E.one ]) v v);
        (1, map2 (fun p q -> F.(p = q)) product product);
        (1, map3 (fun x y n -> F.(E.(x + y) <= n)) v v (c 2 40));
        (1, map2 (fun x y -> F.(x < y)) v v);
        (1, map2 (fun x n -> F.(x <> n)) v (c 1 8));
        (1, map3 (fun x m r -> F.(E.(x mod m) = r)) v (c 2 5) (c 0 1));
      ]
  in
  map2
    (fun max_steps fs -> { max_steps; fs })
    (oneofl [ 1; 3; 10; 50; 2000 ])
    (list_size (int_range 1 8) shape)

let qcheck_solve_matches_search_oracle =
  let counters = [ "smt/prop_visits"; "smt/prop_capped"; "smt/backtracks" ] in
  let show (r, m, steps, work) =
    Printf.sprintf "%s model=[%s] steps=%d visits=%d capped=%d backtracks=%d"
      (match r with S.Sat -> "sat" | S.Unsat -> "unsat" | S.Unknown -> "unknown")
      (String.concat " " (List.map (fun (id, n) -> Printf.sprintf "%d=%d" id n) m))
      steps (List.nth work 0) (List.nth work 1) (List.nth work 2)
  in
  let ids m =
    match m with
    | None -> []
    | Some m -> List.map (fun ((v : E.var), n) -> (v.id, n)) (M.bindings m)
  in
  QCheck.Test.make ~name:"solve matches the map-based search oracle" ~count:1000
    (QCheck.make
       ~print:(fun c ->
         Printf.sprintf "max_steps=%d [%s]" c.max_steps
           (String.concat "; " (List.map F.to_string c.fs)))
       gen_solve_case)
    (fun c ->
      let module Tel = Nnsmith_telemetry.Telemetry in
      Tel.set_enabled true;
      let before = List.map Tel.counter_value counters in
      let s = S.create ~max_steps:c.max_steps () in
      S.assert_all s c.fs;
      let r = S.check s in
      let got =
        ( r,
          ids (S.model s),
          S.check_steps s,
          List.map2 (fun k b -> Tel.counter_value k - b) counters before )
      in
      let want =
        let r, m, steps, (w : Search_oracle.work) =
          Search_oracle.check ~max_steps:c.max_steps c.fs
        in
        (r, ids m, steps, [ w.visits; w.capped; w.backtracks ])
      in
      want = got
      || QCheck.Test.fail_reportf "oracle %s@.solver %s" (show want) (show got))

(* ------------------------------------------------------------------ *)
(* Model reuse and components                                          *)

(* Run [f] with the pre-screen switched as given, restoring the global
   switch afterwards. *)
let with_screen on f =
  let was = S.prescreen_enabled () in
  S.set_prescreen_enabled on;
  Fun.protect ~finally:(fun () -> S.set_prescreen_enabled was) f

let test_model_reuse_zero_steps () =
  let x = E.fresh "x" and y = E.fresh "y" in
  let s = S.create () in
  S.assert_all s F.[ E.(x + y) = E.int 10; x <= y ];
  check "base sat" true (S.check s = S.Sat);
  (* the current model already satisfies this probe: no search runs *)
  check "compatible probe accepted" true
    (S.try_add_constraints s F.[ E.one <= y ]);
  check_int "answered by model reuse" 0 (S.check_steps s)

let test_component_decomposition () =
  (* variable-disjoint subsystems are solved independently: an Unsat
     island sinks the whole set, and Sat islands compose into one model *)
  let x = E.fresh "x" and y = E.fresh "y" and a = E.fresh "a" in
  let sat_part = F.[ E.(x + y) = E.int 10; x <= y ] in
  check "unsat island detected" true
    (S.solve (sat_part @ F.[ a = E.int 5; a = E.int 6 ]) = None);
  match S.solve (sat_part @ F.[ a = E.int 5 ]) with
  | None -> Alcotest.fail "expected Sat"
  | Some m ->
      let fs = sat_part @ F.[ a = E.int 5 ] in
      check "composed model satisfies all" true
        (List.for_all (M.eval_formula m) fs)

(* ------------------------------------------------------------------ *)
(* Probe sequences                                                     *)

(* A deterministic random script of probe constraint sets over a shared
   variable pool: some probes extend the frame, some conflict and roll
   back, some touch several components at once. *)
let probe_script seed =
  let rng = Random.State.make [| seed |] in
  let nvars = 3 + Random.State.int rng 6 in
  let pool = Array.init nvars (fun i -> E.fresh (Printf.sprintf "b%d" i)) in
  let nprobes = 5 + Random.State.int rng 12 in
  List.init nprobes (fun _ ->
      let npf = 1 + Random.State.int rng 3 in
      List.init npf (fun _ ->
          let v () = pool.(Random.State.int rng nvars) in
          let c () = E.int (Random.State.int rng 30 - 5) in
          match Random.State.int rng 6 with
          | 0 -> F.(v () <= c ())
          | 1 -> F.(c () <= v ())
          | 2 -> F.(v () = c ())
          | 3 -> F.(E.(v () + v ()) <= E.int (20 + Random.State.int rng 20))
          | 4 -> F.(v () < v ())
          | _ ->
              let k = 1 + Random.State.int rng 3 in
              let bound = Random.State.int rng 40 in
              F.(E.(v () * int k) <= E.int bound)))

(* Replay a probe script on a fresh solver with the pre-screen on or off,
   recording everything observable: per-probe verdict, the final check
   verdict, and the final model bindings.  Step counts are left out: a
   probe the screen answers runs no search. *)
let replay ~screen probes =
  with_screen screen @@ fun () ->
  let s = S.create () in
  let log =
    List.map
      (fun fs -> S.try_add_constraints s fs)
      probes
  in
  let final = S.check s in
  let m =
    match S.model s with
    | None -> []
    | Some m -> List.map (fun ((v : E.var), n) -> (v.id, n)) (M.bindings m)
  in
  (log, final, m)

(* The screen answers probes from its interval domains and the concrete
   path: every probe, the final verdict and the final model must match a
   replay where each probe runs the full check. *)
let qcheck_screen_probe_identity =
  QCheck.Test.make ~name:"screen on = off probe sequences" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let probes = probe_script seed in
      replay ~screen:true probes = replay ~screen:false probes)

(* A rejected probe writes nothing: not the assertions, not the model,
   not the screen domains and not the formulas the model still has to be
   checked against.  Two rejections, with the screen on and off: one the
   interval screen can refute ([9 < z] against [z <= 4]) and one only the
   full solve refutes ([y <= 3] against [x + y = 10], [x <= y]).  Each
   rejected probe carries [y <= 3], a bound the screen domains would
   absorb: afterwards the screen still answers a fixed probe as before,
   and a probe the earlier model satisfies is still answered by model
   reuse, with no search. *)
let test_rejected_probe_leaves_nothing () =
  let run ~screen ~screen_rejects probe =
    with_screen screen @@ fun () ->
    let x = E.fresh "x" and y = E.fresh "y" and z = E.fresh "z" in
    let s = S.create () in
    check "base" true
      (S.try_add_constraints s F.[ E.(x + y) = E.int 10; x <= y ]);
    check "z bound" true (S.try_add_constraints s F.[ z <= E.int 4 ]);
    let fixed () =
      List.map (S.prescreen_unsat s) F.[ [ E.int 4 <= y ]; [ E.int 5 < z ] ]
    in
    let before = fixed () and model = S.model s in
    check "fixed probe answers" true (before = [ false; true ]);
    let probe = probe y z in
    check "rejecting step" screen_rejects (S.prescreen_unsat s probe);
    check "rejected" false (S.try_add_constraints s probe);
    if not screen_rejects then check "solved" true (S.check_steps s > 0);
    check "screen unchanged" true (fixed () = before);
    check "model unchanged" true (S.model s = model);
    check "satisfied probe accepted" true
      (S.try_add_constraints s F.[ z <= E.int 6; x <= y ]);
    check_int "answered by model reuse" 0 (S.check_steps s)
  in
  List.iter
    (fun screen ->
      run ~screen ~screen_rejects:true (fun y z ->
          F.[ y <= E.int 3; E.int 9 < z ]);
      run ~screen ~screen_rejects:false (fun y _ -> F.[ y <= E.int 3 ]))
    [ true; false ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "smt"
    [
      ( "expr",
        [
          tc "constant folding" `Quick test_const_folding;
          tc "unit laws" `Quick test_unit_laws;
          tc "floor division" `Quick test_floor_division;
          tc "eval" `Quick test_eval;
          tc "vars" `Quick test_vars;
          tc "hc_clear restarts fresh ids" `Quick test_hc_clear_restarts_ids;
          QCheck_alcotest.to_alcotest qcheck_fdiv_fmod;
          QCheck_alcotest.to_alcotest qcheck_one_division;
        ] );
      ( "formula",
        [
          tc "folding" `Quick test_formula_folding;
          tc "eval" `Quick test_formula_eval;
          tc "vars/atoms" `Quick test_formula_vars;
          tc "normalize" `Quick test_formula_normalize;
        ] );
      ( "interval",
        [
          tc "basics" `Quick test_interval_basics;
          tc "arithmetic" `Quick test_interval_arith;
          tc "saturation" `Quick test_interval_saturation;
          QCheck_alcotest.to_alcotest qcheck_interval_mul_sound;
          QCheck_alcotest.to_alcotest qcheck_interval_div_sound;
        ] );
      ( "solver",
        [
          tc "simple sat" `Quick test_solver_simple_sat;
          tc "unsat" `Quick test_solver_unsat;
          tc "minimal model bias" `Quick test_solver_minimal_model_bias;
          tc "products" `Quick test_solver_products;
          tc "conv shapes" `Quick test_solver_conv_shapes;
          tc "disjunction" `Quick test_solver_disjunction;
          tc "negation" `Quick test_solver_negation;
          tc "try_add rollback" `Quick test_try_add_rollback;
          tc "incremental" `Quick test_incremental_model_updates;
          tc "step limit" `Quick test_step_limit_unknown;
          tc "mod constraint" `Quick test_mod_constraint;
          tc "interleaved solvers" `Quick test_interleaved_solvers;
          tc "concurrent domains" `Quick test_concurrent_domain_solves;
          QCheck_alcotest.to_alcotest qcheck_solver_sound;
        ] );
      ( "propagation",
        [
          tc "round cap" `Quick test_propagation_round_cap;
          tc "conflicting pin undone" `Quick test_conflicting_pin_undone;
          tc "undone pin restores flags" `Quick test_undone_pin_restores_flags;
          tc "saturated target narrows" `Quick test_saturated_target_narrows;
          QCheck_alcotest.to_alcotest qcheck_propagation_matches_oracle;
          QCheck_alcotest.to_alcotest qcheck_engine_forward_matches_interval;
          QCheck_alcotest.to_alcotest qcheck_solve_matches_search_oracle;
        ] );
      ( "cache",
        [
          tc "model reuse zero steps" `Quick test_model_reuse_zero_steps;
          tc "component decomposition" `Quick test_component_decomposition;
        ] );
      ( "probe",
        [
          tc "rejected probe leaves nothing behind" `Quick
            test_rejected_probe_leaves_nothing;
          QCheck_alcotest.to_alcotest qcheck_screen_probe_identity;
        ] );
    ]
