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
  check_int "mod neg den" (-1) (E.fmod 7 (-2))

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

let solve fs = S.solve ~seed:1 fs

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
  let s = S.create ~seed:1 () in
  let x = E.fresh "x" in
  check "first" true (S.try_add_constraints s F.[ x <= E.int 5 ]);
  check "conflict rolled back" false (S.try_add_constraints s F.[ x > E.int 9 ]);
  check "still consistent" true (S.try_add_constraints s F.[ x >= E.int 2 ]);
  match S.model s with
  | Some m ->
      let v = M.eval_expr m x in
      check "within" true (v >= 2 && v <= 5)
  | None -> Alcotest.fail "expected model"

let test_push_pop () =
  let s = S.create ~seed:1 () in
  let x = E.fresh "x" in
  S.assert_ s F.(x <= E.int 5);
  S.push s;
  S.assert_ s F.(x > E.int 10);
  check "unsat inner" true (S.check s = S.Unsat);
  S.pop s;
  check "sat after pop" true (S.check s = S.Sat);
  Alcotest.check_raises "pop empty"
    (Invalid_argument "Solver.pop: empty frame stack") (fun () ->
      S.pop s;
      S.pop s)

let test_incremental_model_updates () =
  let s = S.create ~seed:1 () in
  let x = E.fresh "x" in
  check "a" true (S.try_add_constraints s F.[ E.one <= x ]);
  check "b" true (S.try_add_constraints s F.[ E.int 7 <= x ]);
  match S.model s with
  | Some m -> check "respects later bound" true (M.eval_expr m x >= 7)
  | None -> Alcotest.fail "expected model"

let test_step_limit_unknown () =
  (* A hard system under a tiny budget must report Unknown, not loop. *)
  let s = S.create ~max_steps:2 ~seed:1 () in
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
  let s1 = S.create ~seed:1 () and s2 = S.create ~seed:2 () in
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
        match S.solve ~seed:(salt + i) fs with
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

(* The solver's propagation as it was before watch lists and annotated
   intervals: every round re-applies every item, and [refine] re-evaluates
   [fwd] at every level.  The solver's loop must make exactly the same
   narrowing steps: the same final domains, the same Conflicts, and the
   same propagations stopped at the 64-round cap. *)
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

  let rec refine ~ch d (e : E.t) (tgt : I.t) =
    match I.inter (fwd d e) tgt with
    | None -> raise Conflict
    | Some tgt -> (
        match e with
        | Const _ -> d
        | Var v ->
            if I.equal (dom d v) tgt then d
            else begin
              ch := true;
              Imap.add v.id (v, tgt) d
            end
        | Add (x, y) ->
            let d = refine ~ch d x (I.sub tgt (fwd d y)) in
            refine ~ch d y (I.sub tgt (fwd d x))
        | Sub (x, y) ->
            let d = refine ~ch d x (I.add tgt (fwd d y)) in
            refine ~ch d y (I.sub (fwd d x) tgt)
        | Neg x -> refine ~ch d x (I.neg tgt)
        | Mul (x, y) -> (
            let d =
              match mul_arg_target (fwd d y) tgt with
              | Some t -> refine ~ch d x t
              | None -> d
            in
            match mul_arg_target (fwd d x) tgt with
            | Some t -> refine ~ch d y t
            | None -> d)
        | Div (x, y) ->
            let iy = fwd d y in
            if iy.lo >= 1 then
              let lo_x = min (tgt.lo * iy.lo) (tgt.lo * iy.hi)
              and hi_x =
                max ((tgt.hi + 1) * iy.lo) ((tgt.hi + 1) * iy.hi) - 1
              in
              refine ~ch d x (mk lo_x hi_x)
            else d
        | Mod (_, _) -> d
        | Min (x, y) ->
            let d = refine ~ch d x (mk tgt.lo I.big) in
            let d = refine ~ch d y (mk tgt.lo I.big) in
            let ix = fwd d x and iy = fwd d y in
            if ix.lo > tgt.hi then refine ~ch d y (mk (-I.big) tgt.hi)
            else if iy.lo > tgt.hi then refine ~ch d x (mk (-I.big) tgt.hi)
            else d
        | Max (x, y) ->
            let d = refine ~ch d x (mk (-I.big) tgt.hi) in
            let d = refine ~ch d y (mk (-I.big) tgt.hi) in
            let ix = fwd d x and iy = fwd d y in
            if ix.hi < tgt.lo then refine ~ch d y (mk tgt.lo I.big)
            else if iy.hi < tgt.lo then refine ~ch d x (mk tgt.lo I.big)
            else d)

  let narrow_atom ~ch d (f : F.t) =
    match f with
    | Cmp (Le, a, b) ->
        let ib = fwd d b in
        let d = refine ~ch d a (mk (-I.big) ib.hi) in
        refine ~ch d b (mk (fwd d a).lo I.big)
    | Cmp (Lt, a, b) ->
        let ib = fwd d b in
        let d = refine ~ch d a (mk (-I.big) (ib.hi - 1)) in
        refine ~ch d b (mk ((fwd d a).lo + 1) I.big)
    | Cmp (Eq, a, b) -> (
        match I.inter (fwd d a) (fwd d b) with
        | None -> raise Conflict
        | Some m -> refine ~ch (refine ~ch d a m) b m)
    | Cmp (Ne, a, b) -> (
        let ia = fwd d a and ib = fwd d b in
        match (I.is_point ia, I.is_point ib) with
        | Some x, Some y -> if x = y then raise Conflict else d
        | Some x, None ->
            if x = ib.lo then refine ~ch d b (mk (ib.lo + 1) ib.hi)
            else if x = ib.hi then refine ~ch d b (mk ib.lo (ib.hi - 1))
            else d
        | None, Some y ->
            if y = ia.lo then refine ~ch d a (mk (ia.lo + 1) ia.hi)
            else if y = ia.hi then refine ~ch d a (mk ia.lo (ia.hi - 1))
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

  let propagate_once ~ch d atoms ors =
    let d = List.fold_left (narrow_atom ~ch) d atoms in
    let use_or d (orf : F.t) =
      match orf with
      | Or disjuncts -> (
          match
            List.filter
              (fun g -> I.eval_formula ~lookup:(dom d) g <> I.F)
              disjuncts
          with
          | [] -> raise Conflict
          | [ g ] -> (
              match split_conj [] [] g with
              | atoms', _ -> List.fold_left (narrow_atom ~ch) d atoms'
              | exception Exit -> raise Conflict)
          | _ :: _ :: _ -> d)
      | True | False | Cmp _ | And _ | Not _ -> d
    in
    List.fold_left use_or d ors

  let propagate ~rounds ~capped d atoms ors =
    let ch = ref false in
    let rec loop d rounds =
      if rounds = 0 then begin
        incr capped;
        d
      end
      else begin
        ch := false;
        let d = propagate_once ~ch d atoms ors in
        if !ch then loop d (rounds - 1) else d
      end
    in
    loop d rounds

  (* The search's branching step, then propagation, for each pin. *)
  let run ?(rounds = 64) ~init atoms ors pins =
    let capped = ref 0 in
    let d0 =
      List.fold_left
        (fun d ((v : E.var), i) -> Imap.add v.id (v, i) d)
        Imap.empty init
    in
    let outcome =
      match
        List.fold_left
          (fun d ((v : E.var), n) ->
            let d = refine ~ch:(ref false) d (Var v) (I.point n) in
            propagate ~rounds ~capped d atoms ors)
          (propagate ~rounds ~capped d0 atoms ors)
          pins
      with
      | d -> Some (List.map snd (Imap.bindings d))
      | exception Conflict -> None
    in
    (outcome, !capped)
end

let show_dom ((v : E.var), i) = v.name ^ Fmt.to_to_string I.pp i

let show_outcome (outcome, capped) =
  let bindings =
    match outcome with
    | None -> "conflict"
    | Some bs -> String.concat " " (List.map show_dom bs)
  in
  Printf.sprintf "%s (capped %d)" bindings capped

(* Random terms over [vars] built with the raw constructors, so no smart
   constructor folds a case away; every [Expr] constructor occurs. *)
let rec gen_term vars depth =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> E.Const n) (int_range (-4) 9);
        map (fun v -> E.Var v) (oneofl vars);
      ]
  in
  if depth = 0 then leaf
  else
    let sub = gen_term vars (depth - 1) in
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
     at the fixpoint *)
  oneofl [ 1; 2; 3; 64 ] >>= fun rounds ->
  map4
    (fun init atoms ors pins ->
      { rounds; init = List.filter_map Fun.id init; atoms; ors; pins })
    (flatten_l (List.map gen_init vars))
    (list_size (int_range 1 6) (gen_atom vars))
    (list_size (int_range 0 2) (map (fun ds -> F.Or ds) disjuncts))
    (list_size (int_range 0 3) gen_pin)

let print_prop_case c =
  Printf.sprintf "rounds=%d init=[%s] atoms=[%s] ors=[%s] pins=[%s]" c.rounds
    (String.concat "; " (List.map show_dom c.init))
    (String.concat "; " (List.map F.to_string c.atoms))
    (String.concat "; " (List.map F.to_string c.ors))
    (String.concat "; "
       (List.map
          (fun ((v : E.var), n) -> Printf.sprintf "%s=%d" v.name n)
          c.pins))

let qcheck_propagation_matches_oracle =
  QCheck.Test.make ~name:"propagation matches the full-sweep oracle" ~count:3000
    (QCheck.make ~print:print_prop_case gen_prop_case)
    (fun c ->
      let want = Oracle.run ~rounds:c.rounds ~init:c.init c.atoms c.ors c.pins
      and got =
        S.propagate_for_test ~rounds:c.rounds ~init:c.init c.atoms c.ors c.pins
      in
      let same (o1, c1) (o2, c2) =
        c1 = c2
        &&
        match (o1, o2) with
        | None, None -> true
        | Some b1, Some b2 ->
            List.equal
              (fun ((v1 : E.var), i1) ((v2 : E.var), i2) ->
                v1.id = v2.id && I.equal i1 i2)
              b1 b2
        | _ -> false
      in
      same want got
      || QCheck.Test.fail_reportf "oracle %s@.solver %s" (show_outcome want)
           (show_outcome got))

let qcheck_eval_tree_matches_eval_expr =
  QCheck.Test.make ~name:"eval_tree root is eval_expr" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         pair (int_range (-20) 20) (int_range 0 40) >>= fun (lo, w) ->
         let v = E.fresh_var ~lo ~hi:(lo + w) "t" in
         gen_term [ v ] 4))
    (fun e ->
      let lookup (v : E.var) = I.make v.lo v.hi in
      I.equal (I.tree_value (I.eval_tree ~lookup e)) (I.eval_expr ~lookup e))

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
  | Some [ (_, ix); (_, iy) ] ->
      check "still wide" true (I.width ix > 60000 && I.width iy > 60000)
  | _ -> Alcotest.fail "expected two narrowed domains"

(* ------------------------------------------------------------------ *)
(* Solve cache                                                         *)

(* Run [f] with the cache in a known-clean enabled state and restore the
   global flag and this domain's capacity afterwards. *)
let with_clean_cache f =
  let was = S.cache_enabled () in
  let cap = (S.cache_stats ()).cs_capacity in
  S.set_cache_enabled true;
  S.cache_clear ();
  Fun.protect
    ~finally:(fun () ->
      S.set_cache_capacity cap;
      S.cache_clear ();
      S.set_cache_enabled was)
    f

(* A small family of mutually distinct single-component systems. *)
let sys_n n =
  let x = E.fresh "x" and y = E.fresh "y" in
  F.[ E.(x + y) = E.int (10 + n); x <= y; E.one <= x ]

let test_cache_lru_eviction () =
  with_clean_cache (fun () ->
      S.set_cache_capacity 4;
      List.iter (fun n -> ignore (S.solve (sys_n n))) (List.init 10 Fun.id);
      let st = S.cache_stats () in
      check "bounded" true (st.cs_size <= 4);
      check "evicted" true (st.cs_evictions >= 6);
      (* most recent keys survive, the oldest were evicted *)
      let h0 = (S.cache_stats ()).cs_hits in
      ignore (S.solve (sys_n 9));
      check "recent key resident" true ((S.cache_stats ()).cs_hits = h0 + 1);
      let m0 = (S.cache_stats ()).cs_misses in
      ignore (S.solve (sys_n 0));
      check "oldest key evicted" true ((S.cache_stats ()).cs_misses = m0 + 1))

let test_cache_cross_domain_isolation () =
  with_clean_cache (fun () ->
      ignore (S.solve (sys_n 3));
      let main_before = S.cache_stats () in
      check "main domain populated" true (main_before.cs_size > 0);
      let spawned =
        Domain.spawn (fun () ->
            let empty = S.cache_stats () in
            (* same system solved in a fresh domain must be a miss: the
               tables are domain-local, not shared *)
            ignore (S.solve (sys_n 3));
            let after = S.cache_stats () in
            (empty.cs_size, after.cs_hits, after.cs_misses))
        |> Domain.join
      in
      let empty_size, d_hits, d_misses = spawned in
      check_int "spawned domain starts empty" 0 empty_size;
      check_int "spawned domain had no hits" 0 d_hits;
      check "spawned domain solved fresh" true (d_misses > 0);
      let main_after = S.cache_stats () in
      check_int "main domain unaffected" main_before.cs_size
        main_after.cs_size)

let test_cache_on_off_identical_models () =
  with_clean_cache (fun () ->
      let systems = List.init 8 sys_n in
      let models enabled =
        S.set_cache_enabled enabled;
        List.map
          (fun fs ->
            match S.solve fs with
            | None -> Alcotest.fail "expected Sat"
            | Some m ->
                List.map (fun ((v : E.var), n) -> (v.id, n)) (M.bindings m))
          systems
      in
      let off = models false in
      let on_cold = models true in
      let on_warm = models true in
      (* second cache-on pass is answered from cache *)
      check "warm pass hit the cache" true ((S.cache_stats ()).cs_hits > 0);
      check "cache-off = cache-on (cold)" true (off = on_cold);
      check "cache-off = cache-on (warm)" true (off = on_warm))

let test_cache_l1_frame_hit () =
  with_clean_cache (fun () ->
      let x = E.fresh "x" and y = E.fresh "y" in
      let s = S.create () in
      S.assert_all s F.[ E.(x + y) = E.int 10; x <= y ];
      check "base sat" true (S.check s = S.Sat);
      let probe = F.[ y < x ] in
      let before = List.length (S.assertions s) in
      check "probe rejected" false (S.try_add_constraints s probe);
      let st1 = S.cache_stats () in
      (* identical probe against the unchanged frame: L1 answers it *)
      check "re-probe rejected" false (S.try_add_constraints s probe);
      let st2 = S.cache_stats () in
      check_int "re-probe was a pure hit" (st1.cs_hits + 1) st2.cs_hits;
      check_int "re-probe did not solve" st1.cs_misses st2.cs_misses;
      check_int "frame unchanged" before (List.length (S.assertions s)))

let test_model_reuse_zero_steps () =
  with_clean_cache (fun () ->
      let x = E.fresh "x" and y = E.fresh "y" in
      let s = S.create () in
      S.assert_all s F.[ E.(x + y) = E.int 10; x <= y ];
      check "base sat" true (S.check s = S.Sat);
      (* the current model already satisfies this probe: no search runs *)
      check "compatible probe accepted" true
        (S.try_add_constraints s F.[ E.one <= y ]);
      check_int "answered by model reuse" 0 (S.check_steps s))

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

(* Replay a probe script on a fresh solver with the caches on or off,
   recording everything observable: per-probe verdict and step count, the
   final check verdict, and the final model bindings. *)
let replay ~cache probes =
  S.set_cache_enabled cache;
  let s = S.create () in
  let log =
    List.map
      (fun fs ->
        let ok = S.try_add_constraints s fs in
        (ok, S.check_steps s))
      probes
  in
  let final = S.check s in
  let m =
    match S.model s with
    | None -> []
    | Some m -> List.map (fun ((v : E.var), n) -> (v.id, n)) (M.bindings m)
  in
  (log, final, m)

(* The first cache-on replay runs cold, the second is answered from the
   warm L2 table; both must match the cache-off replay. *)
let qcheck_cache_probe_identity =
  QCheck.Test.make ~name:"cache on = off probe sequences" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      with_clean_cache (fun () ->
          let probes = probe_script seed in
          let reference = replay ~cache:true probes in
          List.for_all
            (fun cache -> replay ~cache probes = reference)
            [ true; false ]))

let test_probe_interleaved_with_push_pop () =
  (* The L1 frame cache keys on frame-stack epochs, which explicit
     push/pop save and restore: probes interleaved with push/pop and
     direct asserts must answer exactly as with the caches off. *)
  with_clean_cache (fun () ->
      let run cache =
        S.set_cache_enabled cache;
        let x = E.fresh "x" and y = E.fresh "y" and z = E.fresh "z" in
        let s = S.create () in
        let r1 = S.try_add_constraints s F.[ E.(x + y) = E.int 10; x <= y ] in
        let r2 = S.try_add_constraints s F.[ z <= E.int 4 ] in
        let r3 = S.try_add_constraints s F.[ y < x ] (* conflict *) in
        S.push s;
        S.assert_ s F.(z > E.int 9) (* conflicts with z <= 4 *);
        let inner = S.check s in
        S.pop s;
        let r4 = S.try_add_constraints s F.[ E.int 2 <= x ] in
        let after = S.check s in
        let vals =
          match S.model s with
          | None -> []
          | Some m -> List.map (fun v -> M.eval_expr m v) [ x; y; z ]
        in
        (r1, r2, r3, inner, r4, after, vals)
      in
      check "cache on/off identical" true (run true = run false))

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
          QCheck_alcotest.to_alcotest qcheck_fdiv_fmod;
        ] );
      ( "formula",
        [
          tc "folding" `Quick test_formula_folding;
          tc "eval" `Quick test_formula_eval;
          tc "vars/atoms" `Quick test_formula_vars;
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
          tc "push/pop" `Quick test_push_pop;
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
          QCheck_alcotest.to_alcotest qcheck_propagation_matches_oracle;
          QCheck_alcotest.to_alcotest qcheck_eval_tree_matches_eval_expr;
        ] );
      ( "cache",
        [
          tc "lru eviction" `Quick test_cache_lru_eviction;
          tc "cross-domain isolation" `Quick test_cache_cross_domain_isolation;
          tc "on/off identical models" `Quick test_cache_on_off_identical_models;
          tc "l1 frame hit" `Quick test_cache_l1_frame_hit;
          tc "model reuse zero steps" `Quick test_model_reuse_zero_steps;
          tc "component decomposition" `Quick test_component_decomposition;
        ] );
      ( "probe",
        [
          tc "interleaved push/pop" `Quick test_probe_interleaved_with_push_pop;
          QCheck_alcotest.to_alcotest qcheck_cache_probe_identity;
        ] );
    ]
