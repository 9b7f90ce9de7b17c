type t = { lo : int; hi : int }

let big = 1 lsl 55
let clamp x = if x > big then big else if x < -big then -big else x

let make lo hi =
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo = clamp lo; hi = clamp hi }

let make_opt lo hi = if lo > hi then None else Some (make lo hi)
let top = { lo = -big; hi = big }
let point n = make n n
let is_point i = if i.lo = i.hi then Some i.lo else None
let mem n i = i.lo <= n && n <= i.hi
let width i = clamp (i.hi - i.lo)

let inter a b =
  let lo = Int.max a.lo b.lo and hi = Int.min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let hull a b = { lo = Int.min a.lo b.lo; hi = Int.max a.hi b.hi }

(* Saturating scalar ops: all operands are within [-big, big], so sums fit in
   native ints; only products can overflow.  Operands in [-2^30, 2^30)
   multiply exactly, others are checked by division. *)
let sat_add a b = clamp (a + b)

let sat_mul a b =
  if ((a + 0x4000_0000) lor (b + 0x4000_0000)) lsr 31 = 0 then clamp (a * b)
  else if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / a <> b then if (a > 0) = (b > 0) then big else -big else clamp p

let add a b = { lo = sat_add a.lo b.lo; hi = sat_add a.hi b.hi }
let sub a b = { lo = sat_add a.lo (-b.hi); hi = sat_add a.hi (-b.lo) }
let neg a = { lo = -a.hi; hi = -a.lo }

(* The hull of four corner values, without building a list: [Int.min] and
   [Int.max] compile to inline comparisons, where the polymorphic [min] and
   [max] would each call into the runtime. *)
let corners c1 c2 c3 c4 =
  {
    lo = clamp (Int.min (Int.min c1 c2) (Int.min c3 c4));
    hi = clamp (Int.max (Int.max c1 c2) (Int.max c3 c4));
  }

let mul a b =
  corners (sat_mul a.lo b.lo) (sat_mul a.lo b.hi) (sat_mul a.hi b.lo)
    (sat_mul a.hi b.hi)

let min_ a b = { lo = Int.min a.lo b.lo; hi = Int.min a.hi b.hi }
let max_ a b = { lo = Int.max a.lo b.lo; hi = Int.max a.hi b.hi }

let div a b =
  if b.lo <= 0 && b.hi >= 0 then top
  else
    corners (Expr.fdiv a.lo b.lo) (Expr.fdiv a.lo b.hi) (Expr.fdiv a.hi b.lo)
      (Expr.fdiv a.hi b.hi)

let rem _ b =
  if b.lo >= 1 then { lo = 0; hi = b.hi - 1 }
  else if b.hi <= -1 then { lo = b.lo + 1; hi = 0 }
  else top

let equal a b = a.lo = b.lo && a.hi = b.hi
let pp ppf i = Fmt.pf ppf "[%d, %d]" i.lo i.hi

(* ------------------------------------------------------------------ *)
(* Abstract evaluation over expressions and formulas.

   The reference semantics of the solver's propagation engine, which
   computes the same operations over dense int arrays (saturation, floor
   division, Mod widening); the tests compare the two. *)

let eval_expr ~lookup e =
  let rec go (e : Expr.t) =
    match e with
    | Expr.Const n -> point n
    | Var v -> lookup v
    | Neg a -> neg (go a)
    | Add (a, b) -> add (go a) (go b)
    | Sub (a, b) -> sub (go a) (go b)
    | Mul (a, b) -> mul (go a) (go b)
    | Div (a, b) -> div (go a) (go b)
    | Mod (a, b) -> rem (go a) (go b)
    | Min (a, b) -> min_ (go a) (go b)
    | Max (a, b) -> max_ (go a) (go b)
  in
  go e

type tv = T | F | U

let eval_formula ~lookup f =
  let rec go (f : Formula.t) =
    match f with
    | Formula.True -> T
    | False -> F
    | Cmp (c, a, b) -> (
        let ia = eval_expr ~lookup a and ib = eval_expr ~lookup b in
        match c with
        | Le -> if ia.hi <= ib.lo then T else if ia.lo > ib.hi then F else U
        | Lt -> if ia.hi < ib.lo then T else if ia.lo >= ib.hi then F else U
        | Eq -> (
            match inter ia ib with
            | None -> F
            | Some _ -> (
                match (is_point ia, is_point ib) with
                | Some x, Some y when x = y -> T
                | _ -> U))
        | Ne -> (
            match inter ia ib with
            | None -> T
            | Some _ -> (
                match (is_point ia, is_point ib) with
                | Some x, Some y when x = y -> F
                | _ -> U)))
    | And fs ->
        List.fold_left
          (fun acc g ->
            match (acc, go g) with
            | F, _ | _, F -> F
            | U, _ | _, U -> U
            | T, T -> T)
          T fs
    | Or fs ->
        List.fold_left
          (fun acc g ->
            match (acc, go g) with
            | T, _ | _, T -> T
            | U, _ | _, U -> U
            | F, F -> F)
          F fs
    | Not g -> ( match go g with T -> F | F -> T | U -> U)
  in
  go f
