module Imap = Map.Make (Int)
module Tel = Nnsmith_telemetry.Telemetry

type result = Sat | Unsat | Unknown

(* Entry of the per-solver frame cache (L1): the outcome of probing one
   normalized constraint set against one frame-stack state. *)
type l1_entry = {
  l1_result : result;
  l1_steps : int;
  l1_model : Model.t option;  (* the model found on Sat *)
}

type t = {
  mutable frames : Formula.t list list;  (* head = most recent frame *)
  mutable cached_model : Model.t option;
  mutable last_steps : int;
  max_steps : int;
  (* [epoch] identifies the current frame-stack *content*: every mutation
     (assert, merge) mints a fresh value, while push/pop save and restore
     it, so two moments with the same epoch hold the same assertion set.
     The L1 cache keys on (epoch, probed constraints). *)
  mutable epoch : int;
  mutable epoch_src : int;
  mutable epoch_stack : int list;  (* epochs saved by [push] *)
  l1 : (int * Formula.t list, l1_entry) Hashtbl.t;
  (* Model-validity chain: while [vchain] matches [epoch], the assertion
     set is (a validated prefix that [cached_model] satisfies and whose
     variables it binds) plus [pending] (asserted since, newest first).
     Model reuse then only needs to evaluate [pending] and the probe —
     the same decision, and the same extended model, as evaluating the
     whole assertion list.  It is a pure shortcut inside the reuse step,
     not a semantic change. *)
  mutable vchain : int;
  mutable pending : Formula.t list;
  (* Screen domains: an interval over-approximation of the values every
     variable can take under the current assertion set, maintained by
     narrowing with each committed formula.  Soundness only needs the
     over-approximation invariant — skipping a narrowing step (screen
     disabled, residual disjunction, defensive Conflict recovery) is
     always safe; what must never happen is keeping a narrowed domain
     after the constraints that justified it are popped, so [push] saves
     the map and [pop] restores it, exactly like [epoch_stack]. *)
  mutable sd : screen_domains;
  mutable sd_stack : screen_domains list;
}

and screen_domains = (Expr.var * Interval.t) Imap.t

let l1_capacity = 2048

(* Search randomness is derived from the canonical form of the constraint
   set being solved (see [canonical_key]), so [seed] no longer influences
   results; it is accepted for compatibility. *)
let create ?(max_steps = 2000) ?seed:_ () =
  {
    frames = [ [] ];
    cached_model = None;
    last_steps = 0;
    max_steps;
    epoch = 0;
    epoch_src = 0;
    epoch_stack = [];
    l1 = Hashtbl.create 64;
    vchain = -1;
    pending = [];
    sd = Imap.empty;
    sd_stack = [];
  }

(* [cached_model] is known to satisfy every current assertion (and to bind
   every variable occurring in them): restart the validity chain here. *)
let validate s =
  s.vchain <- s.epoch;
  s.pending <- []

let fresh_epoch s =
  s.epoch_src <- s.epoch_src + 1;
  s.epoch_src

let push s =
  Tel.incr "smt/push";
  if Tel.is_enabled () then
    Tel.observe "smt/frame_depth" (float_of_int (List.length s.frames));
  s.epoch_stack <- s.epoch :: s.epoch_stack;
  s.sd_stack <- s.sd :: s.sd_stack;
  s.frames <- [] :: s.frames

let pop s =
  Tel.incr "smt/pop";
  match s.frames with
  | [] | [ _ ] -> invalid_arg "Solver.pop: empty frame stack"
  | _ :: rest ->
      s.frames <- rest;
      (match s.epoch_stack with
      | e :: es ->
          s.epoch <- e;
          s.epoch_stack <- es
      | [] -> ());
      (match s.sd_stack with
      | d :: ds ->
          s.sd <- d;
          s.sd_stack <- ds
      | [] -> ())

let assertions s = List.concat_map List.rev (List.rev s.frames)

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
(* Interval propagation (HC4 revise).                                  *)

type domains = (Expr.var * Interval.t) Imap.t

exception Conflict

let mk lo hi =
  match Interval.make_opt lo hi with Some i -> i | None -> raise Conflict

let dom (d : domains) (v : Expr.var) =
  match Imap.find v.id d with
  | _, i -> i
  | exception Not_found -> Interval.make v.lo v.hi

(* Forward evaluation and three-valued formula verdicts share one
   implementation with the pre-screening layer (see interval.mli): the
   screen's definitely-UNSAT answers are sound precisely because they use
   the same abstract semantics as the propagation loop. *)
let fwd d (e : Expr.t) : Interval.t = Interval.eval_expr ~lookup:(dom d) e
let tree d (e : Expr.t) = Interval.eval_tree ~lookup:(dom d) e
let value = Interval.tree_value

(* [t] annotates [e] under the map [d0].  A narrowing always builds a new
   map, so while [d == d0] nothing [e] reads has changed and [t] still
   holds; otherwise [e] is evaluated again under [d]. *)
let tree_at d0 d e t = if d == d0 then t else tree d e
let value_at d0 d e t = if d == d0 then value t else fwd d e

let cdiv a b = -Expr.fdiv (-a) b

(* Narrow [x] given that x * y ∈ [tgt] with y ∈ [iy]. *)
let mul_arg_target (iy : Interval.t) (tgt : Interval.t) : Interval.t option =
  if iy.lo <= 0 && iy.hi >= 0 then None
  else
    let f = Expr.fdiv in
    let lo =
      Int.min
        (Int.min (f tgt.lo iy.lo) (f tgt.lo iy.hi))
        (Int.min (f tgt.hi iy.lo) (f tgt.hi iy.hi))
    and hi =
      Int.max
        (Int.max (cdiv tgt.lo iy.lo) (cdiv tgt.lo iy.hi))
        (Int.max (cdiv tgt.hi iy.lo) (cdiv tgt.hi iy.hi))
    in
    Interval.make_opt lo hi

(* Narrow [d] so that [e] can take a value in [tgt].  [te] is [e]'s
   annotated forward tree under [d]: each level reads its children's
   intervals from it while the map is unchanged, where a plain recursion
   would re-evaluate every subterm at every level.  [note] is called with
   each variable whose domain narrows; it threads the caller's own
   bookkeeping, so concurrent or nested solves never share a flag. *)
let rec refine ~note (d : domains) (e : Expr.t) (te : Interval.tree)
    (tgt : Interval.t) : domains =
  match Interval.inter (value te) tgt with
  | None -> raise Conflict
  | Some tgt -> (
      match (e, te) with
      | Const _, _ -> d
      | Var v, _ ->
          if Interval.equal (value te) tgt then d
          else begin
            note v;
            Imap.add v.id (v, tgt) d
          end
      | Add (x, y), Binary (_, tx, ty) ->
          let d' = refine ~note d x tx (Interval.sub tgt (value ty)) in
          refine ~note d' y (tree_at d d' y ty)
            (Interval.sub tgt (value_at d d' x tx))
      | Sub (x, y), Binary (_, tx, ty) ->
          let d' = refine ~note d x tx (Interval.add tgt (value ty)) in
          refine ~note d' y (tree_at d d' y ty)
            (Interval.sub (value_at d d' x tx) tgt)
      | Neg x, Unary (_, tx) -> refine ~note d x tx (Interval.neg tgt)
      | Mul (x, y), Binary (_, tx, ty) -> (
          let d' =
            match mul_arg_target (value ty) tgt with
            | Some t -> refine ~note d x tx t
            | None -> d
          in
          match mul_arg_target (value_at d d' x tx) tgt with
          | Some t -> refine ~note d' y (tree_at d d' y ty) t
          | None -> d')
      | Div (x, _), Binary (_, tx, ty) ->
          (* floor(x / y) ∈ tgt; narrow x when y is known positive. *)
          let iy = value ty in
          if iy.lo >= 1 then
            let lo_x = Int.min (tgt.lo * iy.lo) (tgt.lo * iy.hi)
            and hi_x =
              Int.max ((tgt.hi + 1) * iy.lo) ((tgt.hi + 1) * iy.hi) - 1
            in
            refine ~note d x tx (mk lo_x hi_x)
          else d
      | Mod (_, _), _ -> d
      | Min (x, y), Binary (_, tx, ty) ->
          (* both operands are >= tgt.lo; at least one is <= tgt.hi *)
          let d1 = refine ~note d x tx (mk tgt.lo Interval.big) in
          let d2 =
            refine ~note d1 y (tree_at d d1 y ty) (mk tgt.lo Interval.big)
          in
          let tx = tree_at d d2 x tx and ty = tree_at d d2 y ty in
          if (value tx).lo > tgt.hi then
            refine ~note d2 y ty (mk (-Interval.big) tgt.hi)
          else if (value ty).lo > tgt.hi then
            refine ~note d2 x tx (mk (-Interval.big) tgt.hi)
          else d2
      | Max (x, y), Binary (_, tx, ty) ->
          let d1 = refine ~note d x tx (mk (-Interval.big) tgt.hi) in
          let d2 =
            refine ~note d1 y (tree_at d d1 y ty) (mk (-Interval.big) tgt.hi)
          in
          let tx = tree_at d d2 x tx and ty = tree_at d d2 y ty in
          if (value tx).hi < tgt.lo then
            refine ~note d2 y ty (mk tgt.lo Interval.big)
          else if (value ty).hi < tgt.lo then
            refine ~note d2 x tx (mk tgt.lo Interval.big)
          else d2
      | (Add _ | Sub _ | Neg _ | Mul _ | Div _ | Min _ | Max _), _ ->
          invalid_arg "Solver.refine: tree does not match the term")

let narrow_atom ~note d (f : Formula.t) =
  match f with
  | Cmp (((Le | Lt) as c), a, b) ->
      (* a <= b - strict: [Lt] is [Le] with a gap of one *)
      let strict = match c with Lt -> 1 | _ -> 0 in
      let ta = tree d a and tb = tree d b in
      let hi_a = (value tb).hi - strict in
      let d' = refine ~note d a ta (mk (-Interval.big) hi_a) in
      let lo_b = (value_at d d' a ta).lo + strict in
      refine ~note d' b (tree_at d d' b tb) (mk lo_b Interval.big)
  | Cmp (Eq, a, b) -> (
      let ta = tree d a and tb = tree d b in
      match Interval.inter (value ta) (value tb) with
      | None -> raise Conflict
      | Some m ->
          let d' = refine ~note d a ta m in
          refine ~note d' b (tree_at d d' b tb) m)
  | Cmp (Ne, a, b) ->
      let ta = tree d a and tb = tree d b in
      let ia = value ta and ib = value tb in
      let pa = ia.lo = ia.hi and pb = ib.lo = ib.hi in
      if pa && pb then if ia.lo = ib.lo then raise Conflict else d
      else if pa then
        if ia.lo = ib.lo then refine ~note d b tb (mk (ib.lo + 1) ib.hi)
        else if ia.lo = ib.hi then refine ~note d b tb (mk ib.lo (ib.hi - 1))
        else d
      else if pb then
        if ib.lo = ia.lo then refine ~note d a ta (mk (ia.lo + 1) ia.hi)
        else if ib.lo = ia.hi then refine ~note d a ta (mk ia.lo (ia.hi - 1))
        else d
      else d
  | True | False | And _ | Or _ | Not _ -> d

let tv_eval d (f : Formula.t) : Interval.tv =
  Interval.eval_formula ~lookup:(dom d) f

(* Apply one propagation item: a conjunctive atom narrows directly; a
   residual disjunction narrows with its last unrefuted branch. *)
let apply ~note d (f : Formula.t) =
  match f with
  | Cmp _ -> narrow_atom ~note d f
  | Or disjuncts -> (
      match List.filter (fun g -> tv_eval d g <> Interval.F) disjuncts with
      | [] -> raise Conflict
      | [ g ] -> (
          match split_conj [] [] g with
          | atoms', _nested -> List.fold_left (narrow_atom ~note) d atoms'
          | exception Exit -> raise Conflict)
      | _ :: _ :: _ -> d)
  | True | False | And _ | Not _ -> d

(* Watch lists.  An item reads only its variables' domains, so applying it
   again to a map where none of them changed since an application that
   returned the map unchanged is again a no-op.  Each item carries a dirty
   flag: it is cleared when an application leaves the map physically
   unchanged, and set again when any variable the item reads is narrowed.
   Skipping clean items therefore replays exactly the narrowing steps,
   rounds and Conflicts of sweeping every item in every round. *)
type plan = {
  items : Formula.t array;  (* the atoms, then the residual disjunctions *)
  watchers : (int, int list) Hashtbl.t;  (* var id -> items reading it *)
}

let plan atoms ors =
  let items = Array.of_list (atoms @ ors) in
  let watchers = Hashtbl.create 16 in
  let watch k (v : Expr.var) =
    let ks = Option.value ~default:[] (Hashtbl.find_opt watchers v.id) in
    Hashtbl.replace watchers v.id (k :: ks)
  in
  Array.iteri (fun k f -> List.iter (watch k) (Formula.vars f)) items;
  { items; watchers }

let mark p dirty (v : Expr.var) =
  match Hashtbl.find_opt p.watchers v.id with
  | Some ks -> List.iter (fun k -> dirty.(k) <- true) ks
  | None -> ()

(* Deterministic propagation work, summed per solve: items applied, and
   propagations stopped at the round cap. *)
type work = { mutable visits : int; mutable capped : int }

let max_rounds = 64

(* Narrow to a fixpoint, at most [rounds] rounds: each round applies the
   dirty items in order, and the loop stops after a round that narrowed
   nothing, i.e. left the map physically unchanged.  [dirty] is updated in
   place. *)
let propagate ?(rounds = max_rounds) ~work p dirty d =
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
  loop d rounds

(* Pin [v] to [n] in a search child: the child starts from its parent's
   flags, with only the items reading [v] dirty. *)
let branch p dirty d (v : Expr.var) n =
  let dirty = Array.copy dirty in
  let d =
    refine ~note:(mark p dirty) d (Var v) (Interval.Leaf (dom d v))
      (Interval.point n)
  in
  (d, dirty)

(* Test-only: the loop as one search path runs it (see solver.mli). *)
let propagate_for_test ?(rounds = max_rounds) ~init atoms ors branches =
  let p = plan atoms ors in
  let work = { visits = 0; capped = 0 } in
  let d0 =
    List.fold_left
      (fun d ((v : Expr.var), i) -> Imap.add v.id (v, i) d)
      Imap.empty init
  in
  let pin (d, dirty) (v, n) =
    let d, dirty = branch p dirty d v n in
    (propagate ~rounds ~work p dirty d, dirty)
  in
  let outcome =
    match
      let dirty = Array.make (Array.length p.items) true in
      List.fold_left pin (propagate ~rounds ~work p dirty d0, dirty) branches
    with
    | d, _ -> Some (List.map snd (Imap.bindings d))
    | exception Conflict -> None
  in
  (outcome, work.capped)

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

let extract_model vars d =
  List.fold_left
    (fun m v ->
      let i = dom d v in
      Model.add v i.Interval.lo m)
    Model.empty vars

(* [vars] must list every variable of [formulas]; the caller supplies them
   in canonical first-occurrence order so that search explores isomorphic
   constraint sets identically (alpha-renaming invariance — the property
   the canonical solve cache relies on). *)
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
      let p = plan atoms ors in
      (* Memoized base domains: seeding the map once per solve means [dom]
         never re-allocates an interval for an unbound variable in the hot
         propagate/backtrack loop. *)
      let base_domains =
        List.fold_left
          (fun d (v : Expr.var) ->
            Imap.add v.id (v, Interval.make v.lo v.hi) d)
          Imap.empty vars
      in
      let check_leaf d =
        let m = extract_model vars d in
        if List.for_all (Model.eval_formula m) formulas then Some m else None
      in
      let rec search d dirty =
        incr steps;
        if !steps > max_steps then raise Step_limit;
        match propagate ~work p dirty d with
        | exception Conflict ->
            Tel.incr "smt/backtracks";
            None
        | d -> (
            let unassigned =
              List.filter_map
                (fun v ->
                  let i = dom d v in
                  match Interval.is_point i with
                  | Some _ -> None
                  | None -> Some (v, i))
                vars
            in
            match unassigned with
            | [] -> check_leaf d
            | first :: rest ->
                let v, i =
                  List.fold_left
                    (fun ((_, bi) as best) ((_, ci) as cur) ->
                      if Interval.width ci < Interval.width bi then cur
                      else best)
                    first rest
                in
                if Interval.width i > enumeration_width then incomplete := true;
                let hinted =
                  Option.value ~default:[] (Hashtbl.find_opt hints v.id)
                  |> List.filter (fun c -> Interval.mem c i)
                in
                let try_value found value =
                  match found with
                  | Some _ -> found
                  | None -> (
                      match branch p dirty d v value with
                      | d', dirty' -> search d' dirty'
                      | exception Conflict ->
                          Tel.incr "smt/backtracks";
                          None)
                in
                List.fold_left try_value None
                  (List.sort_uniq Int.compare (hinted @ candidates rng i)))
      in
      match search base_domains (Array.make (Array.length p.items) true) with
      | Some m -> (Sat, Some m, !steps)
      | None -> ((if !incomplete then Unknown else Unsat), None, !steps)
      | exception Step_limit -> (Unknown, None, !steps))

(* ------------------------------------------------------------------ *)
(* Canonical constraint-set keys.

   A solve is keyed by an alpha-renamed serialization of its assertion
   list: variables are numbered by first occurrence and identified only by
   that index plus their domain bounds, so two constraint sets that differ
   only in variable identities (the common case — Algorithm 1 mints fresh
   attribute variables for every insertion attempt) share a key.  The full
   string is used as the cache key (no collision risk) and its hash seeds
   the search rng, which makes solving a pure function of the constraint
   set — the foundation for both the canonical cache and the bit-identical
   cache-on/cache-off guarantee. *)

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

(* ------------------------------------------------------------------ *)
(* Canonical solve cache (L2): a domain-local bounded LRU mapping the
   canonical key of a constraint set to its solve outcome.  Domain-local
   tables mean parallel-pool workers never contend and never need locks. *)

module Lru = struct
  type entry = { e_result : result; e_steps : int; e_values : int array }

  type node = {
    n_key : string;
    n_entry : entry;
    mutable prev : node option;
    mutable next : node option;
  }

  type t = {
    tbl : (string, node) Hashtbl.t;
    mutable head : node option;  (* most recently used *)
    mutable tail : node option;
    mutable cap : int;
  }

  let create cap = { tbl = Hashtbl.create 256; head = None; tail = None; cap }

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
    (match n.next with Some q -> q.prev <- n.prev | None -> t.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.head;
    n.prev <- None;
    (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let find t key =
    match Hashtbl.find_opt t.tbl key with
    | None -> None
    | Some n ->
        unlink t n;
        push_front t n;
        Some n.n_entry

  let evict_tail t =
    match t.tail with
    | None -> false
    | Some n ->
        unlink t n;
        Hashtbl.remove t.tbl n.n_key;
        true

  (* Returns the number of entries evicted to make room. *)
  let add t key entry =
    if t.cap <= 0 then 0
    else begin
      (match Hashtbl.find_opt t.tbl key with
      | Some old ->
          unlink t old;
          Hashtbl.remove t.tbl key
      | None -> ());
      let n = { n_key = key; n_entry = entry; prev = None; next = None } in
      push_front t n;
      Hashtbl.replace t.tbl key n;
      let ev = ref 0 in
      while Hashtbl.length t.tbl > t.cap do
        if evict_tail t then incr ev
      done;
      !ev
    end

  let clear t =
    Hashtbl.reset t.tbl;
    t.head <- None;
    t.tail <- None

  let size t = Hashtbl.length t.tbl
end

type dcache = {
  lru : Lru.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let default_cache_capacity = 4096

let dcache_key =
  Domain.DLS.new_key (fun () ->
      { lru = Lru.create default_cache_capacity; hits = 0; misses = 0;
        evictions = 0 })

let dcache () = Domain.DLS.get dcache_key

(* The enable flag is global (an atomic read per solve) so one CLI switch
   governs every worker domain; the tables themselves stay domain-local. *)
let cache_flag = Atomic.make true
let set_cache_enabled b = Atomic.set cache_flag b
let cache_enabled () = Atomic.get cache_flag

(* Interval pre-screening (and the concrete model fast path): same global
   switch pattern as the caches — one [--no-prescreen] flag governs every
   worker domain, while the screen domains live on individual solvers.
   Screening is semantically invisible: it only answers a probe when the
   answer provably matches what the full solve would return. *)
let prescreen_flag = Atomic.make true
let set_prescreen_enabled b = Atomic.set prescreen_flag b
let prescreen_enabled () = Atomic.get prescreen_flag

(* Narrow the screen domains with newly committed formulas.  Narrowing with
   any subset of the assertions preserves every solution of the full set,
   so absorbing only the conjunctive atoms (and skipping residual
   disjunctions) is sound.  A propagation Conflict can only arise when a
   caller asserts an infeasible set without checking; recover by keeping
   the domains as they were — not narrowing is always sound.

   Most committed formulas are trivial shapes — positivity bounds
   [1 <= d] and broadcast links [x = y] / [x = 1] — that need a single
   interval intersection, not the nnf / split_conj / HC4 recursion.
   [absorb_one] handles exactly those and deliberately ignores composite
   formulas (numel caps, attribute arithmetic): absorbing them through the
   generic HC4 pass was measured to cost more on the commit path than the
   extra ~1% of screened probes recovered, and skipping narrowing keeps
   [sd] an over-approximation either way. *)
let absorb_bound d (v : Expr.var) lo hi =
  let old = dom d v in
  let nlo = Int.max old.Interval.lo lo and nhi = Int.min old.Interval.hi hi in
  if nlo = old.Interval.lo && nhi = old.Interval.hi then d
  else Imap.add v.id (v, mk nlo nhi) d

let absorb_one d (f : Formula.t) =
  match f with
  | True -> d
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

let screen_absorb s fs =
  if prescreen_enabled () then begin
    let d0 = s.sd in
    let d = try List.fold_left absorb_one d0 fs with Conflict -> d0 in
    s.sd <- d
  end

(* [assert_]'s single-formula case, avoiding the list and fold closure on
   the hottest commit path. *)
let screen_absorb1 s f =
  if prescreen_enabled () then
    match absorb_one s.sd f with
    | d -> s.sd <- d
    | exception Conflict -> ()

(* The definitely-UNSAT screen: propagate the probe's atoms against the
   screen domains.  [sd] over-approximates the feasible set of the asserted
   prefix and HC4 narrowing never removes a solution, so a Conflict proves
   prefix + probe unsatisfiable — the solver would have answered Unsat (or
   Unknown), and [try_add_constraints] would have returned [false] either
   way.  Anything short of a Conflict falls through to the real solve. *)
let rec screen_unsat s fs =
  match fs with
  | [ (Formula.Cmp _ as f) ] -> (
      (* single-atom probe — the most common shape by far; [nnf] and
         [split_conj] would return it unchanged, so skip them *)
      tv_eval s.sd f = Interval.F
      ||
      match
        let d = narrow_atom ~note:ignore s.sd f in
        if d != s.sd then ignore (narrow_atom ~note:ignore d f)
      with
      | exception Conflict -> true
      | () -> false)
  | _ -> screen_unsat_general s fs

and screen_unsat_general s fs =
  match
    List.fold_left
      (fun (atoms, ors) f -> split_conj atoms ors (nnf true f))
      ([], []) fs
  with
  | exception Exit -> true
  | atoms, ors ->
      (* Forward evaluation refutes most infeasible probes (a numel cap
         already blown by fixed dims, a broadcast between incompatible
         points) without the narrowing pass; [tv_eval = F] under
         over-approximating domains is exactly the Conflict [propagate]
         would reach, just cheaper.  The narrowing fallback runs a short
         two-round pass rather than the solver's full fixpoint: conflicts
         reachable only through long narrowing chains are rare, and a
         missed one just sends the probe to the solver — the screen stays
         sound, it only answers less often. *)
      List.exists (fun a -> tv_eval s.sd a = Interval.F) atoms
      ||
      (match
         let p = plan atoms ors in
         let dirty = Array.make (Array.length p.items) true in
         propagate ~rounds:2 ~work:{ visits = 0; capped = 0 } p dirty s.sd
       with
      | exception Conflict -> true
      | _ -> false)

(* Screened bounds of an expression under the current assertion set: the
   generator's per-op feasibility memo keys on these (see Spec.feasible). *)
let screen_interval s e =
  let i = fwd s.sd e in
  (i.Interval.lo, i.Interval.hi)

(* Exposed for the soundness property test. *)
let prescreen_unsat s fs = screen_unsat s (Formula.normalize fs)

let set_cache_capacity n =
  let dc = dcache () in
  dc.lru.Lru.cap <- max 0 n;
  let ev = ref 0 in
  while Lru.size dc.lru > dc.lru.Lru.cap do
    if Lru.evict_tail dc.lru then incr ev
  done;
  dc.evictions <- dc.evictions + !ev

type cache_stats = {
  cs_size : int;
  cs_capacity : int;
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
}

let cache_stats () =
  let dc = dcache () in
  {
    cs_size = Lru.size dc.lru;
    cs_capacity = dc.lru.Lru.cap;
    cs_hits = dc.hits;
    cs_misses = dc.misses;
    cs_evictions = dc.evictions;
  }

(* Domain-local memo of each formula's variable list, keyed by physical
   identity: frames persist across checks, so the same formula is asked
   for its variables hundreds of times. *)
module FPhys = Hashtbl.Make (struct
  type t = Formula.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let fvars_key = Domain.DLS.new_key (fun () -> FPhys.create 1024)

let cache_clear () =
  let dc = dcache () in
  Lru.clear dc.lru;
  dc.hits <- 0;
  dc.misses <- 0;
  dc.evictions <- 0;
  (* the fvars memo is a cache too: keyed by physical formula identity, it
     would otherwise pin every formula from earlier runs and grow (then
     reset) at arbitrary points, making allocation run-order dependent *)
  FPhys.reset (Domain.DLS.get fvars_key)

(* ------------------------------------------------------------------ *)
(* Model reuse: before solving, try to extend the previous model to the
   current assertions (unseen variables take their lower bound).  This is
   the interval-solver analogue of a warm-started incremental SMT check:
   most successful [try_add_constraints] probes add constraints the current
   model already satisfies.  It runs whether or not the cache is enabled —
   it is part of the solving algorithm, so enabling the cache cannot change
   which model is found. *)

(* ------------------------------------------------------------------ *)
(* Connected components.

   Satisfiability of a conjunction decomposes exactly over the connected
   components of its constraint graph (formulas are nodes, shared
   variables are edges): the whole set is Sat iff every component is, and
   the full model is the union of the component models.  Solving per
   component keeps propagation local — the accumulated assertion set of a
   10-op graph no longer makes every probe pay for all 100+ atoms — and
   makes canonical keys component-local, so the same op/placeholder
   constraint shapes recur across unrelated graphs and hit the cache. *)

let fvars (f : Formula.t) : Expr.var list =
  let tbl = Domain.DLS.get fvars_key in
  match FPhys.find_opt tbl f with
  | Some vs -> vs
  | None ->
      let vs = Formula.vars f in
      if FPhys.length tbl > 65536 then FPhys.reset tbl;
      FPhys.add tbl f vs;
      vs

let reuse_model cached fs =
  match cached with
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
      if List.for_all (Formula.eval env) fs then
        Some (Hashtbl.fold (fun _ (v, n) acc -> Model.add v n acc) extra m)
      else None

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

(* Rebuild a model for [vars] from the canonical value vector of a cached
   Sat result.  The LRU is keyed by the full canonical serialization with
   structural string equality, so a hit means the components are identical
   up to alpha-renaming and the remapped vector satisfies the current
   constraint set by construction — no re-evaluation needed on this hot
   path.  The length guard only defends against an impossible key
   collision; it falls back to a fresh solve. *)
let hydrate_entry (e : Lru.entry) vars _fs :
    (result * Model.t option * int) option =
  match e.Lru.e_result with
  | Unsat | Unknown -> Some (e.e_result, None, e.e_steps)
  | Sat ->
      if List.length vars <> Array.length e.e_values then None
      else
        let m, _ =
          List.fold_left
            (fun (m, i) v -> (Model.add v e.e_values.(i) m, i + 1))
            (Model.empty, 0) vars
        in
        Some (Sat, Some m, e.e_steps)

(* Solve one component: L2 lookup first, fresh solve + store on a miss.
   Returns whether the component was answered from cache so the whole
   check can be bucketed hit/miss honestly. *)
let solve_component s dc comp : result * Model.t option * int * bool =
  let key, vars = canonical_key ~max_steps:s.max_steps comp in
  let cached =
    if cache_enabled () then
      match Lru.find dc.lru key with
      | Some e -> hydrate_entry e vars comp
      | None -> None
    else None
  in
  match cached with
  | Some (result, m, steps) ->
      dc.hits <- dc.hits + 1;
      Tel.incr "smt/cache/hit_canon";
      (result, m, steps, true)
  | None ->
      dc.misses <- dc.misses + 1;
      Tel.incr "smt/cache/miss";
      let rng = Random.State.make [| hash_key key |] in
      let work = { visits = 0; capped = 0 } in
      let result, m, steps =
        solve_formulas ~max_steps:s.max_steps ~rng ~vars ~work comp
      in
      (* deterministic work counters: one fresh component solve, the
         search-node expansions it cost (cache hits do no search work), and
         its propagation work *)
      Tel.incr "smt/component_solves";
      if steps > 0 then Tel.incr ~by:steps "smt/search_steps";
      if work.visits > 0 then Tel.incr ~by:work.visits "smt/prop_visits";
      if work.capped > 0 then Tel.incr ~by:work.capped "smt/prop_capped";
      if cache_enabled () then begin
        let values =
          match m with
          | Some m ->
              Array.of_list
                (List.map
                   (fun v ->
                     match Model.find m v with Some n -> n | None -> v.Expr.lo)
                   vars)
          | None -> [||]
        in
        let ev =
          Lru.add dc.lru key
            { Lru.e_result = result; e_steps = steps; e_values = values }
        in
        if ev > 0 then begin
          dc.evictions <- dc.evictions + ev;
          Tel.incr ~by:ev "smt/cache/evict"
        end
      end;
      (result, m, steps, false)

let finish_check s ~t0 ~bucket result =
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
  result

(* An unchecked assert keeps the validity chain alive: the formula
   extends its [pending] delta (the model has not been re-validated
   against it). *)
let assert_ s f =
  Tel.incr "smt/assert";
  match s.frames with
  | frame :: rest ->
      let chain = s.vchain = s.epoch in
      s.frames <- (f :: frame) :: rest;
      s.epoch <- fresh_epoch s;
      if chain then begin
        s.pending <- f :: s.pending;
        s.vchain <- s.epoch
      end;
      screen_absorb1 s f
  | [] -> assert false

let assert_all s fs = List.iter (assert_ s) fs

(* [skip_reuse] is set by the pre-screening layer when it already ran the
   model-reuse attempt over this exact assertion set and saw it fail:
   reuse is deterministic and no state changed since, so re-evaluating it
   here could only fail again. *)
let check_impl ~skip_reuse s =
  Tel.with_span "smt/check" (fun () ->
      Tel.incr "smt/check";
      let t0 = if Tel.is_enabled () then Tel.now_ms () else 0. in
      (* With an intact validity chain, reuse only needs to evaluate the
         formulas asserted since the model was last validated — it decides
         (and extends the model) exactly as evaluating everything would. *)
      let reuse =
        if skip_reuse then None
        else
          let chain = s.vchain = s.epoch in
          let reuse_fs =
            if chain then List.rev s.pending else assertions s
          in
          reuse_model s.cached_model reuse_fs
      in
      match reuse with
      | Some m ->
          s.cached_model <- Some m;
          s.last_steps <- 0;
          validate s;
          Tel.incr "smt/model_reuse";
          finish_check s ~t0 ~bucket:"hit" Sat
      | None ->
          let dc = dcache () in
          (* Components are solved in deterministic order; the first
             non-Sat one decides the verdict.  Component models are
             variable-disjoint, so their union satisfies the whole set. *)
          let rec go model steps all_hit = function
            | [] -> (Sat, Some model, steps, all_hit)
            | comp :: rest -> (
                let r, m, st, hit = solve_component s dc comp in
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
                    go model (steps + st) (all_hit && hit) rest
                | _ -> (r, None, steps + st, all_hit && hit))
          in
          let result, m, steps, all_hit =
            go Model.empty 0 true (components (assertions s))
          in
          s.last_steps <- steps;
          (match m with Some _ -> s.cached_model <- m | None -> ());
          if result = Sat then validate s;
          finish_check s ~t0 ~bucket:(if all_hit then "hit" else "miss") result)

let check s = check_impl ~skip_reuse:false s

(* Record a [try_add_constraints] outcome in the solver's L1 frame cache:
   keyed by the frame-stack epoch the probe ran against plus the normalized
   probe constraints.  Algorithm 1 re-probes the same frame with the same
   candidate constraints whenever generation stalls, so this turns the
   whole push/solve/pop round-trip into one table lookup. *)
let l1_record s epoch fs result =
  if cache_enabled () then begin
    if Hashtbl.length s.l1 >= l1_capacity then Hashtbl.reset s.l1;
    let entry =
      {
        l1_result = result;
        l1_steps = s.last_steps;
        l1_model = (match result with Sat -> s.cached_model | _ -> None);
      }
    in
    Hashtbl.replace s.l1 (epoch, fs) entry
  end

(* Keep the probed constraints: append them to the top frame (same final
   content as push + assert + merge) and mint the epoch for the new state. *)
let commit_probe s fs =
  (match s.frames with
  | top :: rest -> s.frames <- List.rev_append fs top :: rest
  | [] -> assert false);
  s.epoch <- fresh_epoch s;
  screen_absorb s fs

(* The pre-screening layer: answer a probe without entering the check
   machinery when the answer provably matches the full solve's.
   - Concrete fast path: extend the cached model over the probe — exactly
     the model-reuse step every check runs first, so a success commits the
     same model, verdict and state, minus the whole check round-trip.
   - Interval screen: a propagation conflict of the probe's atoms against
     the screen domains proves prefix + probe UNSAT, so the rolled-back
     [false] verdict is forced.
   Returns [None] when the screen cannot decide (counted as a miss). *)
let prescreen s fs epoch0 =
  let reuse_fs =
    if s.vchain = s.epoch then List.rev_append s.pending fs
    else assertions s @ fs
  in
  match reuse_model s.cached_model reuse_fs with
  | Some m ->
      Tel.incr "smt/prescreen/concrete";
      s.cached_model <- Some m;
      s.last_steps <- 0;
      commit_probe s fs;
      validate s;
      l1_record s epoch0 fs Sat;
      Some true
  | None ->
      if screen_unsat s fs then begin
        Tel.incr "smt/prescreen/unsat";
        s.last_steps <- 0;
        l1_record s epoch0 fs Unsat;
        Some false
      end
      else begin
        Tel.incr "smt/prescreen/miss";
        None
      end

let try_add_constraints s fs =
  let fs = Formula.normalize fs in
  let hit =
    if cache_enabled () then Hashtbl.find_opt s.l1 (s.epoch, fs) else None
  in
  match hit with
  | Some e -> (
      let dc = dcache () in
      dc.hits <- dc.hits + 1;
      Tel.incr "smt/cache/hit_frame";
      s.last_steps <- e.l1_steps;
      match e.l1_result with
      | Sat ->
          (match e.l1_model with
          | Some m -> s.cached_model <- Some m
          | None -> ());
          commit_probe s fs;
          (* The L1 model was recorded against this same epoch + probe, so
             the new [cached_model] satisfies the merged set (and binds
             its variables): the validity chain restarts here. *)
          (match e.l1_model with Some _ -> validate s | None -> ());
          true
      | Unsat | Unknown -> false)
  | None -> (
      let epoch0 = s.epoch in
      let screening = prescreen_enabled () in
      let screened = if screening then prescreen s fs epoch0 else None in
      match screened with
      | Some verdict -> verdict
      | None -> (
          let vchain0 = s.vchain and pending0 = s.pending in
          push s;
          assert_all s fs;
          (* a screen miss already ran (and failed) the model-reuse attempt
             over exactly this assertion set; don't pay for it twice *)
          match check_impl ~skip_reuse:screening s with
          | Sat ->
              (* merge the tentative frame into its parent so the
                 constraints stay; drop (without restoring) the epoch saved
                 by [push] since the merged content is a new state *)
              (match s.frames with
              | tentative :: parent :: rest ->
                  s.frames <- (tentative @ parent) :: rest
              | [] | [ _ ] -> assert false);
              (match s.epoch_stack with
              | _ :: es -> s.epoch_stack <- es
              | [] -> ());
              (* likewise drop the screen domains saved by [push]: the
                 probed constraints stay asserted, so the narrowing their
                 [assert_]s performed stays justified *)
              (match s.sd_stack with
              | _ :: ds -> s.sd_stack <- ds
              | [] -> ());
              s.epoch <- fresh_epoch s;
              (* the merge leaves the assertion set the check just proved,
                 so the model it validated stays validated *)
              validate s;
              l1_record s epoch0 fs Sat;
              true
          | (Unsat | Unknown) as r ->
              pop s;
              (* the rolled-back state is exactly the one the saved chain
                 described, and a non-Sat check never touches the model *)
              s.vchain <- vchain0;
              s.pending <- pending0;
              l1_record s epoch0 fs r;
              false))

let model s = s.cached_model
let check_steps s = s.last_steps

let solve ?max_steps ?seed:_ formulas =
  let s = create ?max_steps () in
  assert_all s formulas;
  match check s with Sat -> model s | Unsat | Unknown -> None
