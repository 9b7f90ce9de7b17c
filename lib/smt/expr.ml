type var = { id : int; name : string; lo : int; hi : int }

type t =
  | Const of int
  | Var of var
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Mod of t * t
  | Neg of t
  | Min of t * t
  | Max of t * t

let dim_min = 1
let dim_max = 65536
(* Atomic so that concurrent generation domains never mint the same id. *)
let counter = Atomic.make 0

let fresh_var ?(lo = dim_min) ?(hi = dim_max) name =
  { id = 1 + Atomic.fetch_and_add counter 1; name; lo; hi }

(* ------------------------------------------------------------------ *)
(* Hash-consing.

   Smart constructors intern every term they build in a domain-local
   table, so structurally equal terms constructed on one domain are
   physically equal: [==] decides equality in O(1) on the hot path,
   [Stdlib.compare] short-circuits on shared subterms, and [id]/[hash]
   are O(1) after the first request.  The tables live in domain-local
   storage, so worker domains spawned by the parallel pool never
   contend (and never share physical terms, which is fine — equality
   falls back to the structural comparison). *)

module Phys = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type hc_state = {
  (* (constructor tag, child/payload ids) -> canonical term and its id *)
  nodes : (int * int * int, t * int) Hashtbl.t;
  (* any term ever interned -> its canonical representative and id *)
  meta : (t * int) Phys.t;
  mutable next_id : int;
}

(* Bounds the intern tables; on overflow both are dropped wholesale.
   Clearing only costs future sharing — ids stay monotonic and every
   entry point re-interns deterministically. *)
let hc_capacity = 1 lsl 17

let hc_key =
  Domain.DLS.new_key (fun () ->
      { nodes = Hashtbl.create 4096; meta = Phys.create 4096; next_id = 0 })

let rec hc_intern st (e : t) : t * int =
  match Phys.find_opt st.meta e with
  | Some ri -> ri
  | None ->
      let e', key =
        match e with
        | Const n -> (e, (0, n, 0))
        | Var v -> (e, (1, v.id, 0))
        | Add (a, b) -> hc_bin st e 2 a b (fun a b -> Add (a, b))
        | Sub (a, b) -> hc_bin st e 3 a b (fun a b -> Sub (a, b))
        | Mul (a, b) -> hc_bin st e 4 a b (fun a b -> Mul (a, b))
        | Div (a, b) -> hc_bin st e 5 a b (fun a b -> Div (a, b))
        | Mod (a, b) -> hc_bin st e 6 a b (fun a b -> Mod (a, b))
        | Neg a ->
            let a', ia = hc_intern st a in
            ((if a' == a then e else Neg a'), (7, ia, 0))
        | Min (a, b) -> hc_bin st e 8 a b (fun a b -> Min (a, b))
        | Max (a, b) -> hc_bin st e 9 a b (fun a b -> Max (a, b))
      in
      let rep, rep_id =
        match Hashtbl.find_opt st.nodes key with
        | Some ri -> ri
        | None ->
            let i = st.next_id in
            st.next_id <- i + 1;
            Hashtbl.add st.nodes key (e', i);
            Phys.replace st.meta e' (e', i);
            (e', i)
      in
      if e != rep then Phys.replace st.meta e (rep, rep_id);
      (rep, rep_id)

and hc_bin st e tag a b rebuild =
  let a', ia = hc_intern st a in
  let b', ib = hc_intern st b in
  ((if a' == a && b' == b then e else rebuild a' b'), (tag, ia, ib))

let hc_state () =
  let st = Domain.DLS.get hc_key in
  if
    Hashtbl.length st.nodes > hc_capacity || Phys.length st.meta > hc_capacity
  then begin
    Hashtbl.reset st.nodes;
    Phys.reset st.meta
  end;
  st

let intern e = fst (hc_intern (hc_state ()) e)
let id e = snd (hc_intern (hc_state ()) e)
let hash = id

let hc_clear () =
  let st = Domain.DLS.get hc_key in
  Hashtbl.reset st.nodes;
  Phys.reset st.meta;
  st.next_id <- 0;
  Atomic.set counter 0

(* Constructor-side interning: look the (tag, child ids) key up directly
   instead of allocating a candidate node and re-interning it.  On the hit
   path this skips both the candidate allocation and its deep structural
   hash, and — crucially — never records the duplicate in [meta].  That
   matters beyond wasted memory: [meta] hashes keys *structurally* but
   compares them *physically*, so every duplicate box of one structure
   lands in the same bucket and can never be coalesced — each repeated
   construction grew the chain by one, and every later lookup of that
   structure walked the whole chain before missing.  [Const]s built by
   [int] (the numel cap rebuilds the same constant on every probe) turned
   this into a process-lifetime quadratic slowdown. *)
let mk_node st key rebuild =
  match Hashtbl.find_opt st.nodes key with
  | Some (t, _) -> t
  | None ->
      let e = rebuild () in
      let i = st.next_id in
      st.next_id <- i + 1;
      Hashtbl.add st.nodes key (e, i);
      Phys.replace st.meta e (e, i);
      e

let mk_bin tag rebuild a b =
  let st = hc_state () in
  let a, ia = hc_intern st a in
  let b, ib = hc_intern st b in
  mk_node st (tag, ia, ib) (fun () -> rebuild a b)

let mk_un tag rebuild a =
  let st = hc_state () in
  let a, ia = hc_intern st a in
  mk_node st (tag, ia, 0) (fun () -> rebuild a)

let fresh ?lo ?hi name = intern (Var (fresh_var ?lo ?hi name))
let int n = mk_node (hc_state ()) (0, n, 0) (fun () -> Const n)
let zero = int 0
let one = int 1

(* Floor division: round toward negative infinity, as in shape arithmetic
   for negative padding; [cdiv] rounds toward positive infinity and [fmod]
   is [fdiv]'s remainder.  Each takes one hardware division: the truncated
   remainder is [a - q * b] (exact in wrapping arithmetic, also for
   [min_int / -1]), and it has [a]'s sign, so the truncated quotient is
   one too high for the floor, or one too low for the ceiling, exactly
   when the remainder is nonzero and its sign differs from (floor) or
   matches (ceiling) the divisor's. *)
let fdiv a b =
  let q = a / b in
  let r = a - (q * b) in
  if r <> 0 && r lxor b < 0 then q - 1 else q

let cdiv a b =
  let q = a / b in
  let r = a - (q * b) in
  if r <> 0 && r lxor b >= 0 then q + 1 else q

let fmod a b =
  let r = a - (a / b * b) in
  if r <> 0 && r lxor b < 0 then r + b else r

let ( + ) a b =
  match (a, b) with
  | Const x, Const y -> int (Stdlib.( + ) x y)
  | Const 0, e | e, Const 0 -> e
  | _ -> mk_bin 2 (fun a b -> Add (a, b)) a b

let ( - ) a b =
  match (a, b) with
  | Const x, Const y -> int (Stdlib.( - ) x y)
  | e, Const 0 -> e
  | _ -> mk_bin 3 (fun a b -> Sub (a, b)) a b

let ( * ) a b =
  match (a, b) with
  | Const x, Const y -> int (Stdlib.( * ) x y)
  | Const 0, _ | _, Const 0 -> zero
  | Const 1, e | e, Const 1 -> e
  | _ -> mk_bin 4 (fun a b -> Mul (a, b)) a b

let ( / ) a b =
  match (a, b) with
  | Const x, Const y when y <> 0 -> int (fdiv x y)
  | e, Const 1 -> e
  | _ -> mk_bin 5 (fun a b -> Div (a, b)) a b

let ( mod ) a b =
  match (a, b) with
  | Const x, Const y when y <> 0 -> int (fmod x y)
  | _, Const 1 -> zero
  | _ -> mk_bin 6 (fun a b -> Mod (a, b)) a b

let neg = function
  | Const x -> int (Stdlib.( ~- ) x)
  | Neg e -> e
  | e -> mk_un 7 (fun a -> Neg a) e

let min_ a b =
  match (a, b) with
  | Const x, Const y -> int (Stdlib.min x y)
  | _ -> mk_bin 8 (fun a b -> Min (a, b)) a b

let max_ a b =
  match (a, b) with
  | Const x, Const y -> int (Stdlib.max x y)
  | _ -> mk_bin 9 (fun a b -> Max (a, b)) a b

let product = List.fold_left ( * ) one
let sum = List.fold_left ( + ) zero

let rec fold_vars acc = function
  | Const _ -> acc
  | Var v -> v :: acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) ->
      fold_vars (fold_vars acc a) b
  | Neg a -> fold_vars acc a

let vars e =
  fold_vars [] e
  |> List.sort_uniq (fun a b -> Stdlib.compare a.id b.id)

let is_const = function Const n -> Some n | _ -> None

let rec eval env = function
  | Const n -> n
  | Var v -> env v
  | Add (a, b) -> Stdlib.( + ) (eval env a) (eval env b)
  | Sub (a, b) -> Stdlib.( - ) (eval env a) (eval env b)
  | Mul (a, b) -> Stdlib.( * ) (eval env a) (eval env b)
  | Div (a, b) ->
      let d = eval env b in
      if d = 0 then raise Division_by_zero else fdiv (eval env a) d
  | Mod (a, b) ->
      let d = eval env b in
      if d = 0 then raise Division_by_zero else fmod (eval env a) d
  | Neg a -> Stdlib.( ~- ) (eval env a)
  | Min (a, b) -> Stdlib.min (eval env a) (eval env b)
  | Max (a, b) -> Stdlib.max (eval env a) (eval env b)

(* Hash-consed terms built on the same domain are physically equal, so
   both functions usually answer from the pointer comparison alone. *)
let compare a b = if a == b then 0 else Stdlib.compare a b
let equal a b = a == b || Stdlib.compare a b = 0

let rec pp ppf = function
  | Const n -> Fmt.int ppf n
  | Var v -> Fmt.pf ppf "%s#%d" v.name v.id
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Fmt.pf ppf "(%a * %a)" pp a pp b
  | Div (a, b) -> Fmt.pf ppf "(%a / %a)" pp a pp b
  | Mod (a, b) -> Fmt.pf ppf "(%a %% %a)" pp a pp b
  | Neg a -> Fmt.pf ppf "(- %a)" pp a
  | Min (a, b) -> Fmt.pf ppf "min(%a, %a)" pp a pp b
  | Max (a, b) -> Fmt.pf ppf "max(%a, %a)" pp a pp b

let to_string e = Fmt.str "%a" pp e
