type cmp = Eq | Ne | Le | Lt

type t =
  | True
  | False
  | Cmp of cmp * Expr.t * Expr.t
  | And of t list
  | Or of t list
  | Not of t

let tt = True
let ff = False

let cmp_const c x y =
  match c with
  | Eq -> x = y
  | Ne -> x <> y
  | Le -> x <= y
  | Lt -> x < y

let atom c a b =
  match (Expr.is_const a, Expr.is_const b) with
  | Some x, Some y -> if cmp_const c x y then True else False
  | _ -> Cmp (c, a, b)

let ( = ) a b = atom Eq a b
let ( <> ) a b = atom Ne a b
let ( <= ) a b = atom Le a b
let ( < ) a b = atom Lt a b
let ( >= ) a b = atom Le b a
let ( > ) a b = atom Lt b a

let and_ fs =
  let rec gather acc = function
    | [] -> Some (List.rev acc)
    | True :: rest -> gather acc rest
    | False :: _ -> None
    | And gs :: rest -> gather acc (gs @ rest)
    | f :: rest -> gather (f :: acc) rest
  in
  match gather [] fs with
  | None -> False
  | Some [] -> True
  | Some [ f ] -> f
  | Some fs -> And fs

let or_ fs =
  let rec gather acc = function
    | [] -> Some (List.rev acc)
    | False :: rest -> gather acc rest
    | True :: _ -> None
    | Or gs :: rest -> gather acc (gs @ rest)
    | f :: rest -> gather (f :: acc) rest
  in
  match gather [] fs with
  | None -> True
  | Some [] -> False
  | Some [ f ] -> f
  | Some fs -> Or fs

let not_ = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let conj a b = and_ [ a; b ]
let disj a b = or_ [ a; b ]

let in_range e ~lo ~hi = and_ [ Expr.int lo <= e; e <= Expr.int hi ]
let all_positive es = and_ (List.map (fun e -> Expr.one <= e) es)

let rec atoms = function
  | True | False -> []
  | Cmp (c, a, b) -> [ (c, a, b) ]
  | And fs | Or fs -> List.concat_map atoms fs
  | Not f -> atoms f

let vars f =
  atoms f
  |> List.concat_map (fun (_, a, b) -> Expr.vars a @ Expr.vars b)
  |> List.sort_uniq (fun (a : Expr.var) b -> Stdlib.compare a.id b.id)

let rec eval env = function
  | True -> true
  | False -> false
  | Cmp (c, a, b) -> (
      match (Expr.eval env a, Expr.eval env b) with
      | x, y -> cmp_const c x y
      | exception Division_by_zero -> false)
  | And fs -> List.for_all (eval env) fs
  | Or fs -> List.exists (eval env) fs
  | Not f -> not (eval env f)

let compare (a : t) b = Stdlib.compare a b
let equal a b = Int.equal (compare a b) 0

(* Stable normal form of a constraint set: conjunctions flattened,
   trivially-true members dropped, duplicates removed, members sorted
   structurally.  Any falsified member collapses the set to [ff].  Two
   constraint sets describing the same conjunction normalize to the same
   list, so a probe's result does not depend on its formulas' order. *)
let normalize (fs : t list) : t list =
  let rec flat acc = function
    | [] -> Some acc
    | True :: rest -> flat acc rest
    | False :: _ -> None
    | And gs :: rest -> flat acc (gs @ rest)
    | f :: rest -> flat (f :: acc) rest
  in
  match flat [] fs with
  | None -> [ ff ]
  | Some acc -> List.sort_uniq compare acc

let pp_cmp ppf c =
  Fmt.string ppf (match c with Eq -> "=" | Ne -> "<>" | Le -> "<=" | Lt -> "<")

let rec pp ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Cmp (c, a, b) -> Fmt.pf ppf "%a %a %a" Expr.pp a pp_cmp c Expr.pp b
  | And fs -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " /\\ ") pp) fs
  | Or fs -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " \\/ ") pp) fs
  | Not f -> Fmt.pf ppf "!(%a)" pp f

let to_string f = Fmt.str "%a" pp f
