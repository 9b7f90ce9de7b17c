(* Host-speed reference.  The benchmark runs on a shared host whose speed
   drifts by tens of percent, over seconds as well as minutes, and the
   drift moves every time figure of a run together.  A round times three
   fixed kernels that share no code with the program: a branchy integer
   loop over a 4 KiB array, a loop that builds and hashes short lists of
   pairs, and one that builds and sums a binary tree of 2047 nodes.  The
   speed of a stretch of the run is the geometric mean of the kernels'
   median round times.

   The kernels were chosen by measurement: timed between the tests of long
   runs, the ratio of pass time to the mean varied by 4.2% over 11
   suite-hunt passes whose times varied by 17%, and by 6.3% over 10
   fuzz-10n passes whose times varied by 15%.  The integer loop alone did
   as well on suite-hunt but left 10.4% on fuzz-10n, whose generation
   allocates more; a pointer chase over 3 MiB or 12 MiB did worse on both.

   Only the host's speed changes the integer loop's cost.  The other two
   allocate, so a change to the OCaml GC settings would move them too;
   such a change must be judged on the unscaled figures, which the report
   prints beside the scaled ones. *)

let sink = ref 0
let ints = lazy (Array.init 512 (fun i -> i * 7 land 511))

let integer_loop () =
  let a = Lazy.force ints in
  let h = ref !sink in
  for r = 1 to 2000 do
    for i = 0 to 511 do
      let x = Array.unsafe_get a i in
      if x land 1 = 0 then h := (!h + (x * r)) land max_int
      else h := (!h lxor (x + r)) * 31 land max_int
    done
  done;
  sink := !h

let lists () =
  let acc = ref !sink in
  for i = 1 to 20_000 do
    let l = List.init 10 (fun k -> (i + k, k * i)) in
    acc := !acc lxor Hashtbl.hash l
  done;
  sink := !acc

type tree = Leaf of int | Node of tree * int * tree

let trees () =
  let rec build d = if d = 0 then Leaf (!sink land 7) else Node (build (d - 1), d, build (d - 1)) in
  let rec sum = function Leaf x -> x | Node (l, d, r) -> sum l + d + sum r in
  let acc = ref 0 in
  for _ = 1 to 40 do
    acc := !acc + sum (build 10)
  done;
  sink := !acc

let kernels = [| integer_loop; lists; trees |]

(* The speed on the reference host, in ms.  It only fixes the unit:
   scaled figures read like that host's on a typical minute. *)
let reference_ms = 1.25

(* The rounds taken through one stretch of a run, per kernel. *)
type t = { rounds : float list array; mutable spent : float }

let create () = { rounds = Array.make (Array.length kernels) []; spent = 0. }

let round t =
  Array.iteri
    (fun i k ->
      let t0 = Trace.now_ms () in
      k ();
      let d = Trace.now_ms () -. t0 in
      t.rounds.(i) <- d :: t.rounds.(i);
      t.spent <- t.spent +. d)
    kernels

let spent_ms t = t.spent

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Geometric mean of the kernels' median rounds, in ms. *)
let speed_ms t =
  let logs = Array.map (fun l -> log (median l)) t.rounds in
  exp (Array.fold_left ( +. ) 0. logs /. float (Array.length logs))

(* What a time measured during the stretch is multiplied by to express it
   at the reference speed. *)
let factor t = reference_ms /. speed_ms t

(* The host's speed also swings within a pass, over seconds.  Per round,
   in the order taken: the factor from the median speed of the rounds
   within [window] places of it, for the tests run next to that round. *)
let window = 2

let local_factors t =
  let per_kernel = Array.map (fun l -> Array.of_list (List.rev l)) t.rounds in
  let n = Array.length per_kernel.(0) in
  let speed r =
    exp
      (Array.fold_left (fun a k -> a +. log k.(r)) 0. per_kernel
      /. float (Array.length per_kernel))
  in
  let s = Array.init n speed in
  Array.init n (fun r ->
      let lo = max 0 (r - window) and hi = min (n - 1) (r + window) in
      let w = Array.sub s lo (hi - lo + 1) in
      Array.sort compare w;
      reference_ms /. w.(Array.length w / 2))
