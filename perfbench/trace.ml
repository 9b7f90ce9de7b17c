(* In-memory span recorder for the traced run.  Each span keeps its layer,
   start, end, parent span and test index in flat arrays, so recording
   allocates nothing per span beyond the closure it times; spans are
   written out only after the measured pass.  A span's self time is its
   duration minus the durations of its direct children. *)

let layers =
  [|
    "test";
    "gen";
    "search";
    "export";
    "oracle";
    "compile_run.OxRT";
    "compile_run.Lotus";
    "compile_run.TRT";
    "attribute";
    "save";
    "journal";
  |]

let layer name =
  let rec go i =
    if i = Array.length layers then invalid_arg ("Trace.layer " ^ name)
    else if layers.(i) = name then i
    else go (i + 1)
  in
  go 0

let l_test = layer "test"
let l_gen = layer "gen"
let l_search = layer "search"
let l_export = layer "export"
let l_oracle = layer "oracle"
let l_attribute = layer "attribute"
let l_save = layer "save"
let l_journal = layer "journal"
let l_compile system_name = layer ("compile_run." ^ system_name)

type t = {
  mutable n : int;
  mutable layer : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable child : float array;  (** summed duration of direct children *)
  mutable parent : int array;
  mutable test : int array;
  mutable cur : int;  (** innermost open span, [-1] at top level *)
  mutable cur_test : int;
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    layer = Array.make cap 0;
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    child = Array.make cap 0.;
    parent = Array.make cap 0;
    test = Array.make cap 0;
    cur = -1;
    cur_test = -1;
  }

let now_ms () = Unix.gettimeofday () *. 1000.

let grow t =
  let cap = 2 * Array.length t.layer in
  let gi a = Array.append a (Array.make (cap - Array.length a) 0) in
  let gf a = Array.append a (Array.make (cap - Array.length a) 0.) in
  t.layer <- gi t.layer;
  t.start <- gf t.start;
  t.stop <- gf t.stop;
  t.child <- gf t.child;
  t.parent <- gi t.parent;
  t.test <- gi t.test

let close t i =
  let stop = now_ms () in
  t.stop.(i) <- stop;
  let p = t.parent.(i) in
  if p >= 0 then t.child.(p) <- t.child.(p) +. (stop -. t.start.(i));
  t.cur <- p

(* Time [f] as a span of [layer] under the innermost open span. *)
let span t layer f =
  if t.n = Array.length t.layer then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.layer.(i) <- layer;
  t.parent.(i) <- t.cur;
  t.test.(i) <- t.cur_test;
  t.child.(i) <- 0.;
  t.cur <- i;
  t.start.(i) <- now_ms ();
  match f () with
  | v ->
      close t i;
      v
  | exception e ->
      close t i;
      raise e

(* Attribute the spans [f] opens to test [index]. *)
let with_test t index f =
  t.cur_test <- index;
  Fun.protect ~finally:(fun () -> t.cur_test <- -1) f

let duration t i = t.stop.(i) -. t.start.(i)
let self_ms t i = duration t i -. t.child.(i)

(* Self time of every span of [layer], in or out of a test. *)
let self_total t layer =
  let s = ref 0. in
  for i = 0 to t.n - 1 do
    if t.layer.(i) = layer then s := !s +. self_ms t i
  done;
  !s

(* Per-test, per-layer self time: [ntests] rows of [Array.length layers]. *)
let self_by_test t ~ntests =
  let m = Array.make_matrix ntests (Array.length layers) 0. in
  for i = 0 to t.n - 1 do
    let k = t.test.(i) in
    if k >= 0 then m.(k).(t.layer.(i)) <- m.(k).(t.layer.(i)) +. self_ms t i
  done;
  m

(* Per-test duration of the spans of [layer] (summed within a test), for
   the tests that entered that layer at all. *)
let durations_of t ~ntests layer =
  let d = Array.make ntests nan in
  for i = 0 to t.n - 1 do
    let k = t.test.(i) in
    if k >= 0 && t.layer.(i) = layer then
      d.(k) <- (if Float.is_nan d.(k) then 0. else d.(k)) +. duration t i
  done;
  Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list d))

(* One JSON object per span, times relative to [origin] ms. *)
let write_jsonl t ~origin path =
  Out_channel.with_open_bin path (fun oc ->
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "{\"span\":%d,\"name\":%S,\"start_ms\":%.4f,\"end_ms\":%.4f,\"self_ms\":%.4f,\"parent\":%d,\"test\":%d}\n"
          i layers.(t.layer.(i))
          (t.start.(i) -. origin)
          (t.stop.(i) -. origin)
          (self_ms t i) t.parent.(i) t.test.(i)
      done)
