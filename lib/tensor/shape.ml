type t = int array

let scalar : t = [||]
let rank = Array.length
let numel s = Array.fold_left ( * ) 1 s
let equal (a : t) b = a = b

let strides s =
  let n = rank s in
  let st = Array.make n 1 in
  for i = n - 2 downto 0 do
    st.(i) <- st.(i + 1) * s.(i + 1)
  done;
  st

let ravel s idx =
  let off = ref 0 in
  for i = 0 to rank s - 1 do
    off := (!off * s.(i)) + idx.(i)
  done;
  !off

let unravel s off =
  let r = rank s in
  let idx = Array.make r 0 in
  let rest = ref off in
  for i = r - 1 downto 0 do
    idx.(i) <- !rest mod s.(i);
    rest := !rest / s.(i)
  done;
  idx

(* The odometer.  [base.(k)] holds the summed entries of axes [0..k-1] at
   the current coordinates (or -1 once one of them is a fill), so a step of
   the innermost axis costs one table read and an add, and a carry into
   axis [k] recomputes only the bases below it: amortised O(1) per
   position. *)
let iter_offsets s tables f =
  let r = rank s in
  if Array.length tables <> r then
    invalid_arg "Shape.iter_offsets: rank mismatch";
  Array.iteri
    (fun k tab ->
      if Array.length tab < s.(k) then
        invalid_arg "Shape.iter_offsets: table shorter than its axis")
    tables;
  if r = 0 then f 0 0
  else if numel s > 0 then begin
    let idx = Array.make r 0 and base = Array.make r 0 in
    let rebase k =
      let b = base.(k - 1) and e = tables.(k - 1).(idx.(k - 1)) in
      base.(k) <- (if b < 0 || e < 0 then -1 else b + e)
    in
    for k = 1 to r - 1 do
      rebase k
    done;
    let inner = tables.(r - 1) and d = s.(r - 1) in
    let pos = ref 0 and k = ref 0 in
    while !k >= 0 do
      let b = base.(r - 1) and p = !pos in
      for c = 0 to d - 1 do
        let e = Array.unsafe_get inner c in
        f (p + c) (if b < 0 || e < 0 then -1 else b + e)
      done;
      pos := p + d;
      k := r - 2;
      while !k >= 0 && idx.(!k) = s.(!k) - 1 do
        idx.(!k) <- 0;
        decr k
      done;
      if !k >= 0 then begin
        idx.(!k) <- idx.(!k) + 1;
        for j = !k + 1 to r - 1 do
          rebase j
        done
      end
    done
  end

let offsets s tables =
  let map = Array.make (numel s) 0 in
  iter_offsets s tables (fun i off -> Array.unsafe_set map i off);
  map

let strided_tables s =
  let st = strides s in
  Array.mapi (fun k d -> Array.init d (fun c -> c * st.(k))) s

let broadcast a b =
  let ra = rank a and rb = rank b in
  let r = max ra rb in
  let out = Array.make r 1 in
  let ok = ref true in
  for i = 0 to r - 1 do
    let da = if i < r - ra then 1 else a.(i - (r - ra))
    and db = if i < r - rb then 1 else b.(i - (r - rb)) in
    if da = db || da = 1 || db = 1 then out.(i) <- max da db
    else ok := false
  done;
  if !ok then Some out else None

let broadcast_many = function
  | [] -> None
  | s :: rest ->
      List.fold_left
        (fun acc sh ->
          match acc with None -> None | Some a -> broadcast a sh)
        (Some s) rest

let can_broadcast_to ~src ~dst =
  match broadcast src dst with Some b -> equal b dst | None -> false

let validate s = Array.for_all (fun d -> d >= 1) s

let pp ppf s =
  Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any "x") int) s

let to_string s = Fmt.str "%a" pp s
let of_list = Array.of_list
let to_list = Array.to_list
