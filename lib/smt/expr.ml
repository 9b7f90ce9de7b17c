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

let hc_clear () = Atomic.set counter 0
let fresh ?lo ?hi name = Var (fresh_var ?lo ?hi name)
let int n = Const n
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
  | _ -> Add (a, b)

let ( - ) a b =
  match (a, b) with
  | Const x, Const y -> int (Stdlib.( - ) x y)
  | e, Const 0 -> e
  | _ -> Sub (a, b)

let ( * ) a b =
  match (a, b) with
  | Const x, Const y -> int (Stdlib.( * ) x y)
  | Const 0, _ | _, Const 0 -> zero
  | Const 1, e | e, Const 1 -> e
  | _ -> Mul (a, b)

let ( / ) a b =
  match (a, b) with
  | Const x, Const y when y <> 0 -> int (fdiv x y)
  | e, Const 1 -> e
  | _ -> Div (a, b)

let ( mod ) a b =
  match (a, b) with
  | Const x, Const y when y <> 0 -> int (fmod x y)
  | _, Const 1 -> zero
  | _ -> Mod (a, b)

let neg = function
  | Const x -> int (Stdlib.( ~- ) x)
  | Neg e -> e
  | e -> Neg e

let min_ a b =
  match (a, b) with
  | Const x, Const y -> int (Stdlib.min x y)
  | _ -> Min (a, b)

let max_ a b =
  match (a, b) with
  | Const x, Const y -> int (Stdlib.max x y)
  | _ -> Max (a, b)

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

let compare (a : t) b = Stdlib.compare a b
let equal a b = compare a b = 0

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
