module Imap = Map.Make (Int)
module Tel = Nnsmith_telemetry.Telemetry

type result = Sat | Unsat | Unknown

type t = {
  mutable asserted : Formula.t list;  (* newest first *)
  (* [model] satisfies every assertion outside [pending] (the formulas
     asserted since it was last validated, newest first) and binds their
     variables, so model reuse only evaluates [pending] and the probe: the
     same decision, and the same extended model, as evaluating every
     assertion. *)
  mutable model : Model.t option;
  mutable pending : Formula.t list;
  (* Screen domains: an interval over-approximation of the values every
     variable can take under the assertions, narrowed by each asserted
     formula.  Skipping a narrowing step is always sound; a rejected probe
     never reaches them. *)
  mutable sd : screen_domains;
  mutable last_steps : int;
  max_steps : int;
}

and screen_domains = (Expr.var * Interval.t) Imap.t

(* Search randomness is derived from the canonical form of the constraint
   set being solved (see [canonical_key]), so solving needs no seed. *)
let create ?(max_steps = 2000) () =
  {
    asserted = [];
    model = None;
    pending = [];
    sd = Imap.empty;
    last_steps = 0;
    max_steps;
  }

(* [m] satisfies every assertion and binds every variable occurring in
   them. *)
let validate s m =
  s.model <- Some m;
  s.pending <- []

(* ------------------------------------------------------------------ *)
(* Negation normal form: push [Not] down to (complemented) atoms.      *)

let complement c a b =
  match (c : Formula.cmp) with
  | Formula.Eq -> Formula.Cmp (Ne, a, b)
  | Ne -> Cmp (Eq, a, b)
  | Le -> Cmp (Lt, b, a)
  | Lt -> Cmp (Le, b, a)

let rec nnf pos (f : Formula.t) : Formula.t =
  match f with
  | True -> if pos then True else False
  | False -> if pos then False else True
  | Cmp (c, a, b) -> if pos then f else complement c a b
  | And fs ->
      let gs = List.map (nnf pos) fs in
      if pos then Formula.and_ gs else Formula.or_ gs
  | Or fs ->
      let gs = List.map (nnf pos) fs in
      if pos then Formula.or_ gs else Formula.and_ gs
  | Not g -> nnf (not pos) g

(* Split an NNF formula into conjunctive atoms and residual disjunctions.
   Raises [Exit] on a top-level [False]. *)
let rec split_conj atoms ors (f : Formula.t) =
  match f with
  | True -> (atoms, ors)
  | False -> raise Exit
  | Cmp _ -> (f :: atoms, ors)
  | And fs -> List.fold_left (fun (a, o) g -> split_conj a o g) (atoms, ors) fs
  | Or _ -> (atoms, f :: ors)
  | Not _ -> assert false (* eliminated by nnf *)

(* ------------------------------------------------------------------ *)
(* The propagation engine: HC4 revise over a compiled constraint set.

   A solve compiles its atoms and residual disjunctions once.  Variables
   are numbered densely and their domains live in the int arrays [lo] and
   [hi].  Every term occurrence is a node laid out in post-order, so the
   subterm at node [n] is the node range [first.(n) .. n] and its forward
   interval is one pass over that range into the per-node slots
   [vlo]/[vhi].  A narrowing bumps [narrowings] and pushes the variable's
   previous domain on the trail, so a search child undoes to its parent's
   mark instead of keeping an immutable map.

   Each revise step reads the intervals the map-based HC4 loop read: a
   subterm's slots are evaluated again exactly where that loop rebuilt the
   subterm's annotation (a narrowing happened since), and every kernel is
   [Interval]'s operation on the same bounds.  So every narrowing, round
   and Conflict is that loop's; the tests keep it as an oracle. *)

exception Conflict

type op = Oconst | Ovar | Oadd | Osub | Omul | Odiv | Omod | Oneg | Omin | Omax

(* A comparison atom: the root nodes of its sides, whose nodes are the
   range [first.(a) .. b]. *)
type atom = { cmp : Formula.cmp; a : int; b : int }

(* A formula's three-valued verdict over the compiled atoms. *)
type verdict =
  | Vtrue
  | Vfalse
  | Vcmp of atom
  | Vand of verdict list
  | Vor of verdict list

(* A disjunct of a residual disjunction, and the atoms it narrows with when
   it is the last one unrefuted ([None] when its conjunction holds
   [False]). *)
type disjunct = { verdict : verdict; narrows : atom array option }

type item = Atom of atom | Disj of disjunct array

(* Deterministic propagation work, summed per solve: items applied, and
   propagations stopped at the round cap. *)
type work = { mutable visits : int; mutable capped : int }

type engine = {
  vars : Expr.var array;
  lo : int array;
  hi : int array;
  op : op array;
  arg1 : int array;  (* [Ovar]: the variable; otherwise the (left) child *)
  arg2 : int array;  (* the right child *)
  first : int array;
  vlo : int array;
  vhi : int array;
  items : item array;  (* the atoms, then the residual disjunctions *)
  watchers : int array array;  (* variable -> the items reading it *)
  dirty : bool array;
  mutable trail : int array;  (* (variable, lo, hi) before each narrowing *)
  mutable trail_len : int;
  mutable narrowings : int;
  work : work;
}

let rec term_size : Expr.t -> int = function
  | Const _ | Var _ -> 1
  | Neg a -> 1 + term_size a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) ->
      1 + term_size a + term_size b

(* Compile the items (negation normal form: [Cmp] atoms, then [Or]
   disjunctions) over [vars], numbered first and in order, and any other
   variable they mention, numbered as met.  Domains start at the declared
   bounds and every item starts dirty.  An item watches every variable its
   formula mentions. *)
let compile ?(vars = []) ~work atoms ors =
  let index = Hashtbl.create 16 and order = ref [] in
  let var_index (v : Expr.var) =
    match Hashtbl.find_opt index v.id with
    | Some i -> i
    | None ->
        let i = Hashtbl.length index in
        Hashtbl.add index v.id i;
        order := v :: !order;
        i
  in
  List.iter (fun v -> ignore (var_index v)) vars;
  let forms = atoms @ ors in
  let n =
    List.fold_left
      (fun n f ->
        List.fold_left
          (fun n (_, a, b) -> n + term_size a + term_size b)
          n (Formula.atoms f))
      0 forms
  in
  let op = Array.make n Oconst and arg1 = Array.make n 0
  and arg2 = Array.make n 0 and first = Array.make n 0
  and vlo = Array.make n 0 and vhi = Array.make n 0 in
  let next = ref 0 in
  let rec emit (e : Expr.t) =
    let f = !next in
    let o, x, y =
      match e with
      | Const c ->
          vlo.(f) <- Interval.clamp c;
          vhi.(f) <- Interval.clamp c;
          (Oconst, 0, 0)
      | Var v -> (Ovar, var_index v, 0)
      | Neg a -> (Oneg, emit a, 0)
      | Add (a, b) -> bin Oadd a b
      | Sub (a, b) -> bin Osub a b
      | Mul (a, b) -> bin Omul a b
      | Div (a, b) -> bin Odiv a b
      | Mod (a, b) -> bin Omod a b
      | Min (a, b) -> bin Omin a b
      | Max (a, b) -> bin Omax a b
    in
    let i = !next in
    next := i + 1;
    op.(i) <- o;
    arg1.(i) <- x;
    arg2.(i) <- y;
    first.(i) <- f;
    i
  and bin o a b =
    let a = emit a in
    (o, a, emit b)
  in
  let atom cmp a b =
    let a = emit a in
    { cmp; a; b = emit b }
  in
  let rec verdict (f : Formula.t) =
    match f with
    | True -> Vtrue
    | False -> Vfalse
    | Cmp (c, a, b) -> Vcmp (atom c a b)
    | And fs -> Vand (List.map verdict fs)
    | Or fs -> Vor (List.map verdict fs)
    | Not _ -> assert false (* eliminated by nnf *)
  in
  (* [split_conj]'s atoms, in its order; a nested disjunction is skipped *)
  let rec split acc = function
    | Vtrue | Vor _ -> acc
    | Vfalse -> raise Exit
    | Vcmp t -> t :: acc
    | Vand vs -> List.fold_left split acc vs
  in
  let disjunct g =
    let verdict = verdict g in
    let narrows = try Some (Array.of_list (split [] verdict)) with Exit -> None in
    { verdict; narrows }
  in
  let item (f : Formula.t) =
    let start = !next in
    let item =
      match f with
      | Cmp (c, a, b) -> Atom (atom c a b)
      | Or ds -> Disj (Array.of_list (List.map disjunct ds))
      | True | False | And _ | Not _ -> assert false (* split by split_conj *)
    in
    (item, start, !next)
  in
  let items = Array.of_list (List.map item forms) in
  let watchers = Array.make (Hashtbl.length index) [] in
  Array.iteri
    (fun k (_, start, stop) ->
      for i = start to stop - 1 do
        let v = arg1.(i) in
        if op.(i) = Ovar then
          match watchers.(v) with
          | k' :: _ when k' = k -> ()
          | ks -> watchers.(v) <- k :: ks
      done)
    items;
  let vars = Array.of_list (List.rev !order) in
  let domain (v : Expr.var) = Interval.make v.lo v.hi in
  {
    vars;
    lo = Array.map (fun v -> (domain v).lo) vars;
    hi = Array.map (fun v -> (domain v).hi) vars;
    op;
    arg1;
    arg2;
    first;
    vlo;
    vhi;
    items = Array.map (fun (item, _, _) -> item) items;
    watchers = Array.map Array.of_list watchers;
    dirty = Array.make (Array.length items) true;
    trail = Array.make (3 * (Array.length vars + 8)) 0;
    trail_len = 0;
    narrowings = 0;
    work;
  }

let big = Interval.big
let clamp = Interval.clamp
let sat_add = Interval.sat_add
let sat_mul = Interval.sat_mul

let set g i lo hi =
  g.vlo.(i) <- lo;
  g.vhi.(i) <- hi

(* Forward-evaluate the nodes [i0 .. i1]: each node's slots get
   [Interval]'s operation on its children's.  A quotient's extreme corners
   follow from the signs, as floor division is monotone in each operand on
   a divisor interval that excludes 0. *)
let eval_range g i0 i1 =
  let vlo = g.vlo and vhi = g.vhi in
  for i = i0 to i1 do
    let x = g.arg1.(i) and y = g.arg2.(i) in
    match g.op.(i) with
    | Oconst -> ()
    | Ovar -> set g i g.lo.(x) g.hi.(x)
    | Oneg -> set g i (-vhi.(x)) (-vlo.(x))
    | Oadd -> set g i (sat_add vlo.(x) vlo.(y)) (sat_add vhi.(x) vhi.(y))
    | Osub -> set g i (sat_add vlo.(x) (-vhi.(y))) (sat_add vhi.(x) (-vlo.(y)))
    | Omul ->
        let xl = vlo.(x) and xh = vhi.(x) and yl = vlo.(y) and yh = vhi.(y) in
        if xl >= 0 && yl >= 0 then set g i (sat_mul xl yl) (sat_mul xh yh)
        else
          let c1 = sat_mul xl yl and c2 = sat_mul xl yh
          and c3 = sat_mul xh yl and c4 = sat_mul xh yh in
          set g i
            (Int.min (Int.min c1 c2) (Int.min c3 c4))
            (Int.max (Int.max c1 c2) (Int.max c3 c4))
    | Odiv ->
        let xl = vlo.(x) and xh = vhi.(x) and yl = vlo.(y) and yh = vhi.(y) in
        if yl > 0 then
          set g i
            (Expr.fdiv xl (if xl >= 0 then yh else yl))
            (Expr.fdiv xh (if xh >= 0 then yl else yh))
        else if yh < 0 then
          set g i
            (Expr.fdiv xh (if xh >= 0 then yh else yl))
            (Expr.fdiv xl (if xl >= 0 then yl else yh))
        else set g i (-big) big
    | Omod ->
        if vlo.(y) >= 1 then set g i 0 (vhi.(y) - 1)
        else if vhi.(y) <= -1 then set g i (vlo.(y) + 1) 0
        else set g i (-big) big
    | Omin -> set g i (Int.min vlo.(x) vlo.(y)) (Int.min vhi.(x) vhi.(y))
    | Omax -> set g i (Int.max vlo.(x) vlo.(y)) (Int.max vhi.(x) vhi.(y))
  done

(* Narrow variable [v] to [lo, hi], recording its domain on the trail and
   marking the items that read it dirty. *)
let narrow g v lo hi =
  let k = g.trail_len in
  if k + 3 > Array.length g.trail then begin
    let t = Array.make (2 * Array.length g.trail) 0 in
    Array.blit g.trail 0 t 0 k;
    g.trail <- t
  end;
  g.trail.(k) <- v;
  g.trail.(k + 1) <- g.lo.(v);
  g.trail.(k + 2) <- g.hi.(v);
  g.trail_len <- k + 3;
  g.lo.(v) <- lo;
  g.hi.(v) <- hi;
  g.narrowings <- g.narrowings + 1;
  let ks = g.watchers.(v) in
  for j = 0 to Array.length ks - 1 do
    g.dirty.(ks.(j)) <- true
  done

(* Restore the domains to the trail mark [mark]. *)
let undo g mark =
  while g.trail_len > mark do
    let k = g.trail_len - 3 in
    let v = g.trail.(k) in
    g.lo.(v) <- g.trail.(k + 1);
    g.hi.(v) <- g.trail.(k + 2);
    g.trail_len <- k
  done

(* Narrow so that node [n] can take a value in [tlo, thi].  The slots of
   [n]'s subterm hold its forward intervals under the current domains;
   once a child's narrowing changed a domain, the slots the next step
   reads are evaluated again. *)
let rec refine g n tlo thi =
  let lo = Int.max g.vlo.(n) tlo and hi = Int.min g.vhi.(n) thi in
  if lo > hi then raise Conflict;
  let x = g.arg1.(n) and y = g.arg2.(n) and c = g.narrowings in
  match g.op.(n) with
  | Oconst | Omod -> ()
  | Ovar -> if lo <> g.vlo.(n) || hi <> g.vhi.(n) then narrow g x lo hi
  | Oneg -> refine g x (-hi) (-lo)
  | Oadd ->
      refine g x (sat_add lo (-g.vhi.(y))) (sat_add hi (-g.vlo.(y)));
      if g.narrowings <> c then eval_range g g.first.(x) y;
      refine g y (sat_add lo (-g.vhi.(x))) (sat_add hi (-g.vlo.(x)))
  | Osub ->
      refine g x (sat_add lo g.vlo.(y)) (sat_add hi g.vhi.(y));
      if g.narrowings <> c then eval_range g g.first.(x) y;
      refine g y (sat_add g.vlo.(x) (-hi)) (sat_add g.vhi.(x) (-lo))
  | Omul ->
      refine_factor g x g.vlo.(y) g.vhi.(y) lo hi;
      if g.narrowings <> c then eval_range g g.first.(x) y;
      refine_factor g y g.vlo.(x) g.vhi.(x) lo hi
  | Odiv ->
      (* floor(x / y) ∈ [lo, hi]; narrow x when y is known positive *)
      let yl = g.vlo.(y) and yh = g.vhi.(y) in
      if yl >= 1 then
        refine_mk g x
          (Int.min (lo * yl) (lo * yh))
          (Int.max ((hi + 1) * yl) ((hi + 1) * yh) - 1)
  | Omin ->
      (* both operands are >= lo; at least one is <= hi *)
      refine g x lo big;
      if g.narrowings <> c then eval_range g g.first.(y) y;
      refine g y lo big;
      if g.narrowings <> c then eval_range g g.first.(x) y;
      if g.vlo.(x) > hi then refine g y (-big) hi
      else if g.vlo.(y) > hi then refine g x (-big) hi
  | Omax ->
      refine g x (-big) hi;
      if g.narrowings <> c then eval_range g g.first.(y) y;
      refine g y (-big) hi;
      if g.narrowings <> c then eval_range g g.first.(x) y;
      if g.vhi.(x) < lo then refine g y lo big
      else if g.vhi.(y) < lo then refine g x lo big

(* [x * y ∈ [tlo, thi]] with [y ∈ [yl, yh]]: when [y] excludes 0, narrow
   [x] to the floor of the least quotient and the ceiling of the greatest,
   the corners picked by sign. *)
and refine_factor g x yl yh tlo thi =
  if yl > 0 then
    refine g x
      (Expr.fdiv tlo (if tlo >= 0 then yh else yl))
      (Expr.cdiv thi (if thi >= 0 then yl else yh))
  else if yh < 0 then
    refine g x
      (Expr.fdiv thi (if thi >= 0 then yh else yl))
      (Expr.cdiv tlo (if tlo >= 0 then yl else yh))

(* [refine] to [Interval.make lo hi], a Conflict when it is empty. *)
and refine_mk g n lo hi =
  if lo > hi then raise Conflict;
  refine g n (clamp lo) (clamp hi)

let narrow_atom g { cmp; a; b } =
  eval_range g g.first.(a) b;
  let c = g.narrowings in
  match cmp with
  | Le | Lt ->
      (* a <= b - strict: [Lt] is [Le] with a gap of one *)
      let strict = match cmp with Lt -> 1 | _ -> 0 in
      refine_mk g a (-big) (g.vhi.(b) - strict);
      if g.narrowings <> c then eval_range g g.first.(a) b;
      refine_mk g b (g.vlo.(a) + strict) big
  | Eq ->
      let lo = Int.max g.vlo.(a) g.vlo.(b) and hi = Int.min g.vhi.(a) g.vhi.(b) in
      if lo > hi then raise Conflict;
      refine g a lo hi;
      if g.narrowings <> c then eval_range g g.first.(b) b;
      refine g b lo hi
  | Ne ->
      let al = g.vlo.(a) and ah = g.vhi.(a) and bl = g.vlo.(b) and bh = g.vhi.(b) in
      if al = ah && bl = bh then (if al = bl then raise Conflict)
      else if al = ah then (
        if al = bl then refine_mk g b (bl + 1) bh
        else if al = bh then refine_mk g b bl (bh - 1))
      else if bl = bh then
        if bl = al then refine_mk g a (al + 1) ah
        else if bl = ah then refine_mk g a al (ah - 1)

let cmp_verdict g { cmp; a; b } : Interval.tv =
  eval_range g g.first.(a) b;
  let al = g.vlo.(a) and ah = g.vhi.(a) and bl = g.vlo.(b) and bh = g.vhi.(b) in
  let disjoint = Int.max al bl > Int.min ah bh
  and same_point = al = ah && bl = bh in
  match cmp with
  | Le -> if ah <= bl then T else if al > bh then F else U
  | Lt -> if ah < bl then T else if al >= bh then F else U
  | Eq -> if disjoint then F else if same_point then T else U
  | Ne -> if disjoint then T else if same_point then F else U

(* [Interval.eval_formula]'s verdict; a conjunction stops at its first
   [F] and a disjunction at its first [T], which decide it. *)
let rec verdict g (v : verdict) : Interval.tv =
  match v with
  | Vtrue -> T
  | Vfalse -> F
  | Vcmp t -> cmp_verdict g t
  | Vand vs -> verdict_fold g Interval.F Interval.T vs
  | Vor vs -> verdict_fold g Interval.T Interval.F vs

and verdict_fold g decides acc = function
  | [] -> acc
  | v :: vs -> (
      match verdict g v with
      | U -> verdict_fold g decides U vs
      | r -> if r == decides then r else verdict_fold g decides acc vs)

(* The index of the only disjunct from [i] on that is not refuted: [found]
   if none is, -2 if two are. *)
let rec sole_survivor g ds i found =
  if i = Array.length ds then found
  else
    match verdict g ds.(i).verdict with
    | F -> sole_survivor g ds (i + 1) found
    | T | U -> if found >= 0 then -2 else sole_survivor g ds (i + 1) i

(* Apply one item: an atom narrows directly; a residual disjunction
   narrows with its last unrefuted disjunct. *)
let apply g k =
  match g.items.(k) with
  | Atom t -> narrow_atom g t
  | Disj ds -> (
      match sole_survivor g ds 0 (-1) with
      | -1 -> raise Conflict
      | -2 -> ()
      | i -> (
          match ds.(i).narrows with
          | Some ts ->
              for j = 0 to Array.length ts - 1 do
                narrow_atom g ts.(j)
              done
          | None -> raise Conflict))

let max_rounds = 64

(* Narrow to a fixpoint, at most [rounds] rounds: each round applies the
   dirty items in order, and the loop stops after a round that narrowed
   nothing.  An item turns clean when an application narrows nothing and
   dirty again when a variable it reads narrows, so skipping clean items
   replays exactly the narrowing steps, rounds and Conflicts of sweeping
   every item in every round.  Returns whether the cap stopped it: only
   then can items be left dirty. *)
let rec propagate ~rounds g =
  if rounds = 0 then begin
    g.work.capped <- g.work.capped + 1;
    true
  end
  else begin
    let c0 = g.narrowings in
    for k = 0 to Array.length g.items - 1 do
      if g.dirty.(k) then begin
        g.work.visits <- g.work.visits + 1;
        let c = g.narrowings in
        apply g k;
        if g.narrowings = c then g.dirty.(k) <- false
      end
    done;
    g.narrowings <> c0 && propagate ~rounds:(rounds - 1) g
  end

(* Fix variable [v] to [n] (clamped, as [Interval.point n]): the search's
   branching step. *)
let pin g v n =
  let n = clamp n in
  if n < g.lo.(v) || n > g.hi.(v) then raise Conflict;
  if g.lo.(v) <> n || g.hi.(v) <> n then narrow g v n n

(* Test-only: an engine over [atoms] and [ors] with the domains [init]. *)
let test_engine ~init atoms ors pinned =
  let vars =
    List.map fst init @ pinned @ List.concat_map Formula.vars (atoms @ ors)
    |> List.sort_uniq (fun (a : Expr.var) b -> Int.compare a.id b.id)
  in
  let g = compile ~vars ~work:{ visits = 0; capped = 0 } atoms ors in
  let slot (v : Expr.var) =
    let rec go i = if g.vars.(i).id = v.id then i else go (i + 1) in
    go 0
  in
  List.iter
    (fun (v, (d : Interval.t)) ->
      g.lo.(slot v) <- d.lo;
      g.hi.(slot v) <- d.hi)
    init;
  (g, slot)

let propagate_for_test ?(rounds = max_rounds) ~init atoms ors pins =
  let g, slot = test_engine ~init atoms ors (List.map fst pins) in
  (* the variables of [init] and those narrowed since, as a map-based
     loop's bindings *)
  let domains () =
    let bound = Array.make (Array.length g.vars) false in
    List.iter (fun (v, _) -> bound.(slot v) <- true) init;
    for k = 0 to (g.trail_len / 3) - 1 do
      bound.(g.trail.(3 * k)) <- true
    done;
    List.filteri (fun i _ -> bound.(i)) (Array.to_list g.vars)
    |> List.map (fun v -> (v, Interval.make g.lo.(slot v) g.hi.(slot v)))
  in
  let stage run =
    let mark = g.trail_len and flags = Array.copy g.dirty in
    match
      run ();
      propagate ~rounds g
    with
    | _ -> Some (domains ())
    | exception Conflict ->
        undo g mark;
        Array.blit flags 0 g.dirty 0 (Array.length flags);
        None
  in
  let rec pin_each = function
    | [] -> []
    | (v, n) :: pins ->
        let s = stage (fun () -> pin g (slot v) n) in
        s :: pin_each pins
  in
  let stages =
    match stage ignore with None -> [ None ] | s -> s :: pin_each pins
  in
  (stages, g.work.capped)

let eval_for_test ~init e =
  let g, _ = test_engine ~init [ Formula.Cmp (Eq, e, e) ] [] [] in
  match g.items.(0) with
  | Atom { a; _ } ->
      eval_range g g.first.(a) a;
      Interval.make g.vlo.(a) g.vhi.(a)
  | Disj _ -> assert false

(* ------------------------------------------------------------------ *)
(* Backtracking search.                                                *)

exception Step_limit

let enumeration_width = 16

let candidates rng (i : Interval.t) =
  if Interval.width i <= enumeration_width then
    List.init (i.hi - i.lo + 1) (fun k -> i.lo + k)
  else
    let r () = i.lo + Random.State.int rng (Interval.width i + 1) in
    let mid = i.lo + ((i.hi - i.lo) / 2) in
    [ i.lo; i.lo + 1; i.lo + 2; r (); r (); mid; i.hi ]
    |> List.sort_uniq Int.compare
    |> List.filter (fun v -> Interval.mem v i)
    (* keep the lower bound first: this reproduces Z3's boundary-value bias *)
    |> List.sort Int.compare

(* Values mentioned in equality atoms under a disjunction are natural
   candidates for their variable (interval propagation cannot act on a
   disjunct, but the value is likely the only way to satisfy it). *)
let disjunct_hints formulas =
  let hints : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  let add (v : Expr.var) c =
    let prev = Option.value ~default:[] (Hashtbl.find_opt hints v.id) in
    if not (List.mem c prev) then Hashtbl.replace hints v.id (c :: prev)
  in
  let rec scan under_or (f : Formula.t) =
    match f with
    | Formula.Cmp (Formula.Eq, Expr.Var v, Expr.Const c)
    | Formula.Cmp (Formula.Eq, Expr.Const c, Expr.Var v)
      when under_or ->
        add v c
    | Formula.And fs -> List.iter (scan under_or) fs
    | Formula.Or fs -> List.iter (scan true) fs
    | Formula.Not g -> scan under_or g
    | Formula.True | Formula.False | Formula.Cmp _ -> ()
  in
  List.iter (scan false) formulas;
  hints

(* The unfixed variable of least width, the first in order on a tie; -1
   when every variable is fixed. *)
let narrowest g =
  let best = ref (-1) and width = ref 0 in
  for i = 0 to Array.length g.vars - 1 do
    if g.lo.(i) <> g.hi.(i) then begin
      let w = clamp (g.hi.(i) - g.lo.(i)) in
      if !best < 0 || w < !width then begin
        best := i;
        width := w
      end
    end
  done;
  !best

(* [vars] must list every variable of [formulas]; the caller supplies them
   in canonical first-occurrence order so that search explores isomorphic
   constraint sets identically (alpha-renaming invariance: a solve is a
   pure function of the constraint set up to variable identity). *)
let solve_formulas ~max_steps ~rng ~vars ~work formulas :
    result * Model.t option * int =
  let steps = ref 0 in
  let incomplete = ref false in
  let nnf_formulas = List.map (nnf true) formulas in
  match
    List.fold_left (fun (a, o) f -> split_conj a o f) ([], []) nnf_formulas
  with
  | exception Exit -> (Unsat, None, 0)
  | atoms, ors -> (
      let hints = disjunct_hints nnf_formulas in
      let g = compile ~vars ~work atoms ors in
      let nitems = Array.length g.items in
      let check_leaf () =
        let m = ref Model.empty in
        Array.iteri (fun i v -> m := Model.add v g.lo.(i) !m) g.vars;
        if List.for_all (Model.eval_formula !m) formulas then Some !m else None
      in
      (* A child starts from its parent's flags after propagation — all
         clean unless the round cap stopped it — and undoes to the
         parent's trail mark when it fails. *)
      let rec search () =
        incr steps;
        if !steps > max_steps then raise Step_limit;
        match propagate ~rounds:max_rounds g with
        | exception Conflict ->
            Tel.incr "smt/backtracks";
            None
        | capped -> (
            match narrowest g with
            | -1 -> check_leaf ()
            | v ->
                let i = Interval.make g.lo.(v) g.hi.(v) in
                if Interval.width i > enumeration_width then incomplete := true;
                let hinted =
                  Option.value ~default:[]
                    (Hashtbl.find_opt hints g.vars.(v).id)
                  |> List.filter (fun c -> Interval.mem c i)
                in
                let flags = if capped then Some (Array.copy g.dirty) else None
                and mark = g.trail_len in
                let rec try_values = function
                  | [] -> None
                  | n :: ns -> (
                      (match flags with
                      | Some f -> Array.blit f 0 g.dirty 0 nitems
                      | None -> Array.fill g.dirty 0 nitems false);
                      match
                        match pin g v n with
                        | () -> search ()
                        | exception Conflict ->
                            Tel.incr "smt/backtracks";
                            None
                      with
                      | Some _ as found -> found
                      | None ->
                          undo g mark;
                          try_values ns)
                in
                try_values
                  (List.sort_uniq Int.compare (hinted @ candidates rng i)))
      in
      match search () with
      | Some m -> (Sat, Some m, !steps)
      | None -> ((if !incomplete then Unknown else Unsat), None, !steps)
      | exception Step_limit -> (Unknown, None, !steps))

(* ------------------------------------------------------------------ *)
(* Canonical constraint-set keys.

   A solve is keyed by an alpha-renamed serialization of its assertion
   list: variables are numbered by first occurrence and identified only by
   that index plus their domain bounds, so two constraint sets that differ
   only in variable identities (the common case — Algorithm 1 mints fresh
   attribute variables for every insertion attempt) share a key.  Its hash
   seeds the search rng and its variable order is the search's, which
   makes solving a pure function of the constraint set. *)

let canonical_key ~max_steps (fs : Formula.t list) : string * Expr.var list =
  let buf = Buffer.create 256 in
  Buffer.add_char buf 'S';
  Buffer.add_string buf (string_of_int max_steps);
  Buffer.add_char buf ';';
  let idx : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  let add_int n = Buffer.add_string buf (string_of_int n) in
  let var (v : Expr.var) =
    match Hashtbl.find_opt idx v.id with
    | Some i ->
        Buffer.add_char buf 'v';
        add_int i
    | None ->
        let i = Hashtbl.length idx in
        Hashtbl.add idx v.id i;
        order := v :: !order;
        Buffer.add_char buf 'v';
        add_int i;
        Buffer.add_char buf ':';
        add_int v.lo;
        Buffer.add_char buf ':';
        add_int v.hi
  in
  let rec expr (e : Expr.t) =
    match e with
    | Const n ->
        Buffer.add_char buf '#';
        add_int n
    | Var v -> var v
    | Add (a, b) -> bin '+' a b
    | Sub (a, b) -> bin '-' a b
    | Mul (a, b) -> bin '*' a b
    | Div (a, b) -> bin '/' a b
    | Mod (a, b) -> bin '%' a b
    | Neg a ->
        Buffer.add_string buf "(n";
        expr a;
        Buffer.add_char buf ')'
    | Min (a, b) -> bin 'm' a b
    | Max (a, b) -> bin 'M' a b
  and bin c a b =
    Buffer.add_char buf '(';
    Buffer.add_char buf c;
    expr a;
    Buffer.add_char buf ' ';
    expr b;
    Buffer.add_char buf ')'
  in
  let rec form (f : Formula.t) =
    match f with
    | True -> Buffer.add_char buf 'T'
    | False -> Buffer.add_char buf 'F'
    | Cmp (c, a, b) ->
        Buffer.add_char buf '(';
        Buffer.add_string buf
          (match c with Eq -> "=" | Ne -> "!=" | Le -> "<=" | Lt -> "<");
        expr a;
        Buffer.add_char buf ' ';
        expr b;
        Buffer.add_char buf ')'
    | And gs ->
        Buffer.add_string buf "(&";
        List.iter form gs;
        Buffer.add_char buf ')'
    | Or gs ->
        Buffer.add_string buf "(|";
        List.iter form gs;
        Buffer.add_char buf ')'
    | Not g ->
        Buffer.add_string buf "(!";
        form g;
        Buffer.add_char buf ')'
  in
  List.iter
    (fun f ->
      form f;
      Buffer.add_char buf ';')
    fs;
  (Buffer.contents buf, List.rev !order)

let hash_key (s : string) =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h) lxor Char.code c) s;
  !h land max_int

(* The interval screen's switch, a test hook: global so it governs every
   worker domain, while the screen domains live on individual solvers.
   The screen is semantically invisible: it only rejects a probe the full
   solve would reject. *)
let prescreen_flag = Atomic.make true
let set_prescreen_enabled b = Atomic.set prescreen_flag b
let prescreen_enabled () = Atomic.get prescreen_flag

(* Narrow the screen domains with an asserted formula.  Narrowing with any
   subset of the assertions preserves every solution of the full set, so
   skipping a formula is sound.  A Conflict can only arise when a caller
   asserts an infeasible set without checking; the domains then stay as
   they were, since not narrowing is always sound.

   Most asserted formulas are trivial shapes, positivity bounds [1 <= d]
   and broadcast links [x = y] / [x = 1], that need a single interval
   intersection, not the nnf / split_conj / HC4 recursion.  [absorb]
   handles exactly those and ignores composite formulas (numel caps,
   attribute arithmetic): absorbing them through the generic HC4 pass was
   measured to cost more on the commit path than the extra ~1% of
   screened probes recovered. *)
let dom (d : screen_domains) (v : Expr.var) =
  match Imap.find v.id d with
  | _, i -> i
  | exception Not_found -> Interval.make v.lo v.hi

let mk lo hi =
  match Interval.make_opt lo hi with Some i -> i | None -> raise Conflict

let absorb_bound d (v : Expr.var) lo hi =
  let old = dom d v in
  let nlo = Int.max old.Interval.lo lo and nhi = Int.min old.Interval.hi hi in
  if nlo = old.Interval.lo && nhi = old.Interval.hi then d
  else Imap.add v.id (v, mk nlo nhi) d

let absorb s (f : Formula.t) =
  let d = s.sd in
  match
    match f with
    | Cmp (Le, Const n, Var v) -> absorb_bound d v n Interval.big
    | Cmp (Le, Var v, Const n) -> absorb_bound d v (-Interval.big) n
    | Cmp (Lt, Const n, Var v) -> absorb_bound d v (n + 1) Interval.big
    | Cmp (Lt, Var v, Const n) -> absorb_bound d v (-Interval.big) (n - 1)
    | Cmp (Eq, Var v, Const n) | Cmp (Eq, Const n, Var v) ->
        absorb_bound d v n n
    | Cmp (Eq, Var x, Var y) ->
        let ix = dom d x and iy = dom d y in
        let m =
          mk (Int.max ix.Interval.lo iy.Interval.lo)
            (Int.min ix.Interval.hi iy.Interval.hi)
        in
        let d = if Interval.equal ix m then d else Imap.add x.id (x, m) d in
        if Interval.equal iy m then d else Imap.add y.id (y, m) d
    | _ -> d
  with
  | d -> s.sd <- d
  | exception Conflict -> ()

(* The definitely-UNSAT screen: propagate the probe's atoms against the
   screen domains.  [sd] over-approximates the feasible set of the asserted
   prefix and HC4 narrowing never removes a solution, so a Conflict proves
   prefix + probe unsatisfiable — the solver would have answered Unsat (or
   Unknown), and [try_add_constraints] would have returned [false] either
   way.  Anything short of a Conflict falls through to the real solve.

   Forward evaluation refutes most infeasible probes (a numel cap already
   blown by fixed dims, a broadcast between incompatible points) without
   the narrowing pass; an [F] verdict under over-approximating domains is
   exactly the Conflict propagation would reach, just cheaper.  The
   narrowing fallback runs a short two-round pass (a single atom narrows,
   and narrows again if that changed a domain) rather than the solver's
   full fixpoint: conflicts reachable only through long narrowing chains
   are rare, and a missed one just sends the probe to the solver — the
   screen stays sound, it only answers less often. *)
let screen_unsat s fs =
  match
    List.fold_left
      (fun (atoms, ors) f -> split_conj atoms ors (nnf true f))
      ([], []) fs
  with
  | exception Exit -> true
  | atoms, ors -> (
      let g = compile ~work:{ visits = 0; capped = 0 } atoms ors in
      Array.iteri
        (fun i (v : Expr.var) ->
          match Imap.find_opt v.id s.sd with
          | Some (_, (d : Interval.t)) ->
              g.lo.(i) <- d.lo;
              g.hi.(i) <- d.hi
          | None -> ())
        g.vars;
      Array.exists
        (function
          | Atom t -> ( match cmp_verdict g t with F -> true | T | U -> false)
          | Disj _ -> false)
        g.items
      ||
      match propagate ~rounds:2 g with
      | exception Conflict -> true
      | _ -> false)

(* Exposed for the soundness property test. *)
let prescreen_unsat s fs = screen_unsat s (Formula.normalize fs)

(* Domain-local memo of each formula's variable list, keyed by physical
   identity: assertions persist across checks, so the same formula is
   asked for its variables hundreds of times. *)
module FPhys = Hashtbl.Make (struct
  type t = Formula.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let fvars_key = Domain.DLS.new_key (fun () -> FPhys.create 1024)

(* The memo is keyed by physical formula identity: it would otherwise pin
   every formula from earlier runs and grow (then reset) at arbitrary
   points, making allocation run-order dependent. *)
let cache_clear () = FPhys.reset (Domain.DLS.get fvars_key)

let fvars (f : Formula.t) : Expr.var list =
  let tbl = Domain.DLS.get fvars_key in
  match FPhys.find_opt tbl f with
  | Some vs -> vs
  | None ->
      let vs = Formula.vars f in
      if FPhys.length tbl > 65536 then FPhys.reset tbl;
      FPhys.add tbl f vs;
      vs

(* ------------------------------------------------------------------ *)
(* Model reuse: before solving, try to extend the model over the formulas
   asserted since it was validated and then [fs] (unseen variables take
   their lower bound).  This is the interval-solver analogue of a
   warm-started incremental SMT check: most successful
   [try_add_constraints] probes add constraints the current model already
   satisfies. *)

let reuse s fs =
  match s.model with
  | None -> None
  | Some m ->
      let extra : (int, Expr.var * int) Hashtbl.t = Hashtbl.create 8 in
      let env (v : Expr.var) =
        match Model.find m v with
        | Some n -> n
        | None -> (
            match Hashtbl.find_opt extra v.id with
            | Some (_, n) -> n
            | None ->
                Hashtbl.add extra v.id (v, v.lo);
                v.lo)
      in
      if List.for_all (Formula.eval env) (List.rev_append s.pending fs) then
        Some (Hashtbl.fold (fun _ (v, n) acc -> Model.add v n acc) extra m)
      else None

(* ------------------------------------------------------------------ *)
(* Connected components.

   Satisfiability of a conjunction decomposes exactly over the connected
   components of its constraint graph (formulas are nodes, shared
   variables are edges): the whole set is Sat iff every component is, and
   the full model is the union of the component models.  Solving per
   component keeps propagation local — the accumulated assertion set of a
   10-op graph no longer makes every probe pay for all 100+ atoms — and
   makes canonical keys, hence search order, component-local. *)

(* Partition into components, deterministically: components are ordered by
   the first formula that belongs to them, formulas keep their original
   order within a component, and variable-free formulas form one bucket. *)
let components (fs : Formula.t list) : Formula.t list list =
  let parent : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | None ->
        Hashtbl.add parent x x;
        x
    | Some p when p = x -> x
    | Some p ->
        let r = find p in
        Hashtbl.replace parent x r;
        r
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  let with_vars = List.map (fun f -> (f, fvars f)) fs in
  List.iter
    (fun (_, vs) ->
      match vs with
      | [] -> ()
      | (v0 : Expr.var) :: rest ->
          List.iter (fun (v : Expr.var) -> union v0.id v.id) rest)
    with_vars;
  (* -1 = the variable-free bucket *)
  let buckets : (int, Formula.t list) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (f, vs) ->
      let key = match vs with [] -> -1 | (v : Expr.var) :: _ -> find v.id in
      match Hashtbl.find_opt buckets key with
      | Some fs' -> Hashtbl.replace buckets key (f :: fs')
      | None ->
          order := key :: !order;
          Hashtbl.add buckets key [ f ])
    with_vars;
  List.rev_map (fun key -> List.rev (Hashtbl.find buckets key)) !order

let components_for_test ~max_steps fs =
  List.map
    (fun comp ->
      let key, vars = canonical_key ~max_steps comp in
      (comp, vars, hash_key key))
    (components fs)

(* Solve one component from scratch, in its canonical variable order with
   the rng seeded from its canonical key. *)
let solve_component s comp : result * Model.t option * int =
  let key, vars = canonical_key ~max_steps:s.max_steps comp in
  let rng = Random.State.make [| hash_key key |] in
  let work = { visits = 0; capped = 0 } in
  let result, m, steps =
    solve_formulas ~max_steps:s.max_steps ~rng ~vars ~work comp
  in
  (* deterministic work counters: one component solve, the search-node
     expansions it cost, and its propagation work *)
  Tel.incr "smt/component_solves";
  if steps > 0 then Tel.incr ~by:steps "smt/search_steps";
  if work.visits > 0 then Tel.incr ~by:work.visits "smt/prop_visits";
  if work.capped > 0 then Tel.incr ~by:work.capped "smt/prop_capped";
  (result, m, steps)

(* Solve [fs] from scratch.  Components are solved in deterministic
   order; the first non-Sat one decides the verdict.  Component models are
   variable-disjoint, so their union satisfies the whole set.  The model
   comes only with Sat. *)
let solve_all s fs =
  let rec go model steps = function
    | [] -> (Sat, Some model, steps)
    | comp :: rest -> (
        let r, m, st = solve_component s comp in
        match r with
        | Sat ->
            let model =
              match m with
              | None -> model
              | Some m ->
                  List.fold_left
                    (fun acc (v, n) -> Model.add v n acc)
                    model (Model.bindings m)
            in
            go model (steps + st) rest
        | _ -> (r, None, steps + st))
  in
  let result, m, steps = go Model.empty 0 (components fs) in
  s.last_steps <- steps;
  (result, m)

(* One counted and timed check: [run] answers with its histogram bucket
   and verdict. *)
let timed_check s run =
  Tel.with_span "smt/check" (fun () ->
      Tel.incr "smt/check";
      let t0 = if Tel.is_enabled () then Tel.now_ms () else 0. in
      let bucket, result = run () in
      if Tel.is_enabled () then begin
        let dt = Tel.now_ms () -. t0 in
        Tel.observe "smt/solve_ms" dt;
        Tel.observe ("smt/solve_ms/" ^ bucket) dt;
        Tel.observe
          ("smt/solve_ms/" ^ bucket ^ "_"
          ^ (match result with
            | Sat -> "sat"
            | Unsat -> "unsat"
            | Unknown -> "unknown"))
          dt;
        Tel.observe "smt/steps" (float_of_int s.last_steps);
        match result with
        | Unknown -> Tel.incr "smt/unknown"
        | Unsat -> Tel.incr "smt/unsat"
        | Sat -> Tel.incr "smt/sat"
      end;
      result)

(* An unchecked assert leaves the model to be validated against it. *)
let assert_ s f =
  Tel.incr "smt/assert";
  s.asserted <- f :: s.asserted;
  s.pending <- f :: s.pending;
  absorb s f

let assert_all s fs = List.iter (assert_ s) fs

let check s =
  timed_check s (fun () ->
      match reuse s [] with
      | Some m ->
          Tel.incr "smt/model_reuse";
          s.last_steps <- 0;
          validate s m;
          ("hit", Sat)
      | None ->
          let result, m = solve_all s (List.rev s.asserted) in
          Option.iter (validate s) m;
          ("miss", result))

(* Keep a probe that [m] proves satisfiable together with the assertions. *)
let commit s fs m =
  s.asserted <- List.rev_append fs s.asserted;
  validate s m;
  List.iter (absorb s) fs

(* Algorithm 1's question, answered in three steps that write the state
   only on Sat, so a rejected probe leaves nothing behind:
   - the concrete path: extend the model over the probe, the model-reuse
     step every check runs first;
   - the interval screen: a propagation conflict of the probe's atoms
     against the screen domains proves the probe unsatisfiable;
   - the full solve of the assertions and the probe. *)
let try_add_constraints s fs =
  let fs = Formula.normalize fs in
  match reuse s fs with
  | Some m ->
      Tel.incr "smt/prescreen/concrete";
      s.last_steps <- 0;
      commit s fs m;
      true
  | None ->
      let screening = prescreen_enabled () in
      if screening && screen_unsat s fs then begin
        Tel.incr "smt/prescreen/unsat";
        s.last_steps <- 0;
        false
      end
      else begin
        if screening then Tel.incr "smt/prescreen/miss";
        timed_check s (fun () ->
            let result, m = solve_all s (List.rev_append s.asserted fs) in
            Option.iter (commit s fs) m;
            ("miss", result))
        = Sat
      end

let model s = s.model
let check_steps s = s.last_steps

let solve ?max_steps formulas =
  let s = create ?max_steps () in
  assert_all s formulas;
  match check s with Sat -> model s | Unsat | Unknown -> None
