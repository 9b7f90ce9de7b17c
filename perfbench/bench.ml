(* The campaign benchmark.  Three workloads drive the NNSmith pipeline
   (generate -> input search -> export -> compile and run -> compare ->
   persist) on one domain.  An end-to-end run times whole tests with
   telemetry off; a traced run re-drives the same tests through the same
   layer calls, each timed as a span from here, and reads the work counters
   the program keeps through [Metrics.capture].  Every run checks its own
   outputs and exits non-zero on a mismatch.  README.md gives the reasons
   for each workload and metric.

     bench.exe run --workload W --seed N --seconds S --trace 0|1
     bench.exe selftest [--workload W]
     bench.exe gen-suite *)

module Tel = Nnsmith_telemetry.Telemetry
module Json = Nnsmith_telemetry.Json
module Metrics = Nnsmith_bench.Metrics
module Graph = Nnsmith_ir.Graph
module Nd = Nnsmith_tensor.Nd
module Runner = Nnsmith_ops.Runner
module Config = Nnsmith_core.Config
module Gen = Nnsmith_core.Gen
module Solver = Nnsmith_smt.Solver
module Expr = Nnsmith_smt.Expr
module Plan = Nnsmith_exec.Plan
module Faults = Nnsmith_faults.Faults
module Cov = Nnsmith_coverage.Coverage
module Pool = Nnsmith_parallel.Pool
module Splitmix = Nnsmith_parallel.Splitmix
module Journal = Nnsmith_journal.Journal
module Corpus = Nnsmith_corpus.Corpus
open Nnsmith_difftest

let suite_dir = Filename.concat "perfbench" "suite"
let run_dir = ".perfbench_run"

type workload = Fuzz_10n | Suite_retest | Suite_hunt

let workloads =
  [
    ("fuzz-10n", Fuzz_10n); ("suite-retest", Suite_retest); ("suite-hunt", Suite_hunt);
  ]

let workload_name wl = fst (List.find (fun (_, w) -> w = wl) workloads)

(* fuzz-10n is the default campaign at a fixed root; the run's seed only
   orders its tests.  Results are index-pure, so every order must give the
   same verdicts, keys and coverage. *)
let fuzz_root = 1
let fuzz_tests = 1000

(* suite-hunt runs the first [hunt_models] stored models: a pass takes
   8-14 s, so a 50-second run makes three or more passes to take medians
   over. *)
let hunt_models = 1500

(* Pfuzz's deterministic input-search budget. *)
let search_iters = 64
let setup_reps = 3
let warmup_tests = 16

(* Host-speed rounds (calib.ml) per pass of an end-to-end run, spread over
   its tests, and before each set-up. *)
let calib_rounds_per_pass = 40
let calib_rounds_per_setup = 3

(* A pass of [n] tests takes a round after each [calib_stride n]-th test. *)
let calib_stride n = max 1 (n / calib_rounds_per_pass)

(* [t_pos] is the test's place in the unpermuted workload. *)
type test = { t_pos : int; t_index : int; t_seed : int; t_graph : Graph.t option }

(* ------------------------------------------------------------------ *)
(* Small utilities                                                      *)

let now_ms = Trace.now_ms

let rec mkdir_p d =
  if d <> "" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* The order pass [pass] of a run with [seed] runs the tests in: each
   consecutive block of [order_block] tests is shuffled within itself.
   Blocks keep their places, so suite-hunt's in-order persistence holds
   back at most a block of failures, as a campaign's does; a global
   shuffle held back up to all of them and made peak RSS a matter of the
   order. *)
let order_block = 64

let permute ~seed ~pass a =
  let a = Array.copy a and st = Random.State.make [| seed; pass |] in
  let n = Array.length a in
  for b = 0 to (n - 1) / order_block do
    let lo = b * order_block in
    for i = min n (lo + order_block) - 1 downto lo + 1 do
      let j = lo + Random.State.int st (i - lo + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done
  done;
  a

(* Nearest-rank percentile of an unsorted sample. *)
let percentile p xs =
  let s = Array.copy xs in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then 0.
  else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let median xs = percentile 0.5 xs

(* Restart the kernel's peak-RSS count, so each pass reports its own. *)
let reset_peak_rss () =
  Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* ------------------------------------------------------------------ *)
(* Cold start: the state a fresh campaign sees                          *)

let cold_start () =
  Faults.deactivate_all ();
  Solver.cache_clear ();
  Plan.cohort_clear ();
  (* after the caches: restarts the fresh-variable counter and intern
     tables, so work repeats exactly run to run *)
  Expr.hc_clear ();
  Cov.reset ();
  Tel.reset ()

(* ------------------------------------------------------------------ *)
(* Verdict tallies, as Pfuzz keeps them                                 *)

type tally = {
  verdicts : (string, int) Hashtbl.t;
  keys : (string, unit) Hashtbl.t;
  triggered : (string, int) Hashtbl.t;
}

let fresh_tally () =
  { verdicts = Hashtbl.create 8; keys = Hashtbl.create 16; triggered = Hashtbl.create 16 }

let bump ?(by = 1) tbl k =
  Hashtbl.replace tbl k (by + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let count tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)
let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Tally one verdict; [true] when it is a failure to attribute and save. *)
let record t (system : Systems.t) v =
  bump t.verdicts (Pfuzz.verdict_name v);
  match v with
  | Harness.Pass | Harness.Skipped _ -> false
  | Harness.Semantic _ ->
      Option.iter (fun k -> Hashtbl.replace t.keys k ()) (Report.failure_key system v);
      true
  | Harness.Crash m ->
      Hashtbl.replace t.keys (Harness.dedup_key m) ();
      Option.iter (bump t.triggered) (Harness.bug_id_of_message m);
      true

let absorb t (o : Pfuzz.outcome) =
  List.iter (fun (k, n) -> bump ~by:n t.verdicts k) o.o_verdicts;
  List.iter (fun k -> Hashtbl.replace t.keys k ()) o.o_keys;
  List.iter (fun (k, n) -> bump ~by:n t.triggered k) o.o_triggered

(* ------------------------------------------------------------------ *)
(* Layer probes                                                         *)

type probe = { span : 'a. int -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

(* Time every compile-and-run of [s] as a span of its own layer. *)
let traced_system tr o0_calls (s : Systems.t) =
  let l = Trace.l_compile s.s_name in
  {
    s with
    Systems.compile_and_run =
      (fun lvl g inputs ->
        if lvl = Systems.O0 then incr o0_calls;
        Trace.span tr l (fun () -> s.compile_and_run lvl g inputs));
  }

(* Corpus and journal of a suite-hunt pass, fresh in [dir].  The journal
   keeps no file of its own: its observer writes each event line exactly
   as [Journal.emit] would, inside a journal span. *)
type persist = {
  corpus : Corpus.t;
  journal : Journal.t;
  journal_oc : out_channel;
  index_path : string;
  mutable saved : int;
  mutable dups : int;
}

let open_persist probe dir =
  rm_rf dir;
  mkdir_p dir;
  let oc = open_out_bin (Filename.concat dir "journal.jsonl") in
  let observer ev =
    probe.span Trace.l_journal (fun () ->
        output_string oc (Json.to_string (Journal.to_json ev));
        output_char oc '\n';
        flush oc)
  in
  let journal = Journal.create ~observer () in
  let cdir = Filename.concat dir "corpus" in
  {
    corpus = Corpus.open_ ~journal cdir;
    journal;
    journal_oc = oc;
    index_path = Filename.concat cdir "index.jsonl";
    saved = 0;
    dups = 0;
  }

(* A failing verdict awaiting persistence. *)
type failure = {
  f_pos : int;  (** run position of its test *)
  f_seed : int;
  f_system : Systems.t;
  f_graph : Graph.t;
  f_binding : Runner.binding;
  f_export_bugs : string list;
  f_verdict : Harness.verdict;
}

(* Input search, export and the differential test of [g] on every system,
   then (hunting) attribution of each semantic mismatch: the steps of
   [Pfuzz.run_index] after generation, in its order.  Returns the binding
   when the search completed, and the failures. *)
let check_model probe ~systems ~hunt t ~pos ~seed g =
  match
    let rng = Random.State.make [| seed |] in
    let binding =
      probe.span Trace.l_search (fun () ->
          Inputs.find_binding ~max_iters:search_iters rng g)
    in
    let exported, export_bugs = probe.span Trace.l_export (fun () -> Exporter.export g) in
    (binding, exported, export_bugs)
  with
  | exception _ ->
      bump t.verdicts "gen_fail";
      (None, [])
  | binding, exported, export_bugs ->
      List.iter (bump t.triggered) export_bugs;
      let fails =
        List.filter_map
          (fun system ->
            match probe.span Trace.l_oracle (fun () -> Harness.test ~exported system g binding) with
            | v ->
                if record t system v then
                  Some
                    {
                      f_pos = pos;
                      f_seed = seed;
                      f_system = system;
                      f_graph = g;
                      f_binding = binding;
                      f_export_bugs = export_bugs;
                      f_verdict = v;
                    }
                else None
            | exception _ ->
                bump t.verdicts "error";
                None)
          systems
      in
      if hunt then
        List.iter
          (fun f ->
            match f.f_verdict with
            | Harness.Semantic _ ->
                probe.span Trace.l_attribute (fun () ->
                    Bughunt.attribute_semantic f.f_system g binding t.triggered)
            | _ -> ())
          fails;
      (Some binding, fails)

let save probe p f =
  match
    probe.span Trace.l_save (fun () ->
        Report.save_failure p.corpus ~system:f.f_system ~generator:"NNSmith" ~seed:f.f_seed
          ~export_bugs:f.f_export_bugs f.f_graph f.f_binding f.f_verdict)
  with
  | `Saved _ -> p.saved <- p.saved + 1
  | `Duplicate _ -> p.dups <- p.dups + 1
  | `Not_failure -> ()

(* fuzz-10n, step for step as [Pfuzz.run_index]. *)
let fuzz_test probe ~systems t ~seed =
  match
    probe.span Trace.l_gen (fun () ->
        Gen.generate { Config.default with seed; max_nodes = 10; binning = true })
  with
  | exception _ ->
      bump t.verdicts "gen_fail";
      None
  | g ->
      let binding, _ = check_model probe ~systems ~hunt:false t ~pos:0 ~seed g in
      Option.map (fun b -> (g, b)) binding

(* ------------------------------------------------------------------ *)
(* One pass over a workload's tests                                      *)

type costs = {
  words : float array;  (** minor-heap words allocated per test *)
  steps : int array;  (** smt/search_steps *)
  checks : int array;  (** smt/check *)
  iters : int array;  (** grad/iterations *)
  kernels : int array;  (** exec/kernel_runs *)
}

type pass = {
  ms : float array;  (** per-test latency, in run order *)
  wall_ms : float;
  tally : tally;
  cov : int;
  index_bytes : string;  (** suite-hunt's corpus index.jsonl *)
  journal_events : int;
  saved : int;
  dups : int;
  checked : (Graph.t * Runner.binding) list;  (** traced: models to re-check *)
  costs : costs option;
  o0_calls : int;
}

let all_bug_ids () = List.map (fun (b : Faults.bug) -> b.b_id) Faults.catalogue

let journal_start j ~tests =
  Journal.emit j
    (Journal.Start
       {
         s_at_ms = Journal.now_ms ();
         s_kind = "hunt";
         s_systems = List.map (fun (s : Systems.t) -> s.s_name) Systems.all;
         s_generator = "NNSmith";
         s_root_seed = Suite.root;
         s_jobs = 1;
         s_budget = Journal.B_tests tests;
       })

let journal_finish j t ~tests ~wall_ms ~saved ~dups =
  let snap = Cov.snapshot () in
  Journal.emit j
    (Journal.Summary
       {
         f_at_ms = Journal.now_ms ();
         f_tests = tests;
         f_tests_per_sec = float tests /. (wall_ms /. 1000.);
         f_verdicts = sorted t.verdicts;
         f_failures = Hashtbl.length t.keys;
         f_saved = saved;
         f_dups = dups;
         f_cov_total = Cov.count snap;
         f_cov_pass = Cov.count_pass snap;
         f_dropped = 0;
       })

(* Run every test once, from whatever state the caller left (callers cold
   start first).  With [trace], each test is a root span and the per-test
   work counters are recorded.

   suite-hunt persists failures as [Pfuzz]'s sink does: in ascending suite
   order as the completed prefix of the suite grows, whatever order the
   tests run in, so every seed saves the same failures into the same
   corpus.  Persistence is not part of a test's latency; it is part of the
   pass.

   With [calib], host-speed rounds run between tests, evenly through the
   pass; they are in no test's latency. *)
let run_pass ?trace ?calib wl tests ~dir =
  let t = fresh_tally () in
  let o0_calls = ref 0 in
  let probe, systems =
    match trace with
    | None -> (untraced, Systems.all)
    | Some tr ->
        ( { span = (fun l f -> Trace.span tr l f) },
          List.map (traced_system tr o0_calls) Systems.all )
  in
  let persist = if wl = Suite_hunt then Some (open_persist probe dir) else None in
  let done_ : (int, failure list) Hashtbl.t = Hashtbl.create 64 in
  let next = ref 0 in
  let rec drain p =
    match Hashtbl.find_opt done_ !next with
    | None -> ()
    | Some fails ->
        Hashtbl.remove done_ !next;
        List.iter
          (fun f ->
            match trace with
            | Some tr -> Trace.with_test tr f.f_pos (fun () -> save probe p f)
            | None -> save probe p f)
          fails;
        incr next;
        drain p
  in
  let body ~pos test =
    match (wl, trace) with
    | Fuzz_10n, None ->
        absorb t (Pfuzz.run_one ~systems ~seed:test.t_seed ());
        None
    | Fuzz_10n, Some _ -> fuzz_test probe ~systems t ~seed:test.t_seed
    | (Suite_retest | Suite_hunt), _ ->
        let g = Option.get test.t_graph in
        let binding, fails =
          check_model probe ~systems ~hunt:(persist <> None) t ~pos ~seed:test.t_seed g
        in
        Option.iter (fun _ -> Hashtbl.replace done_ test.t_pos fails) persist;
        Option.map (fun b -> (g, b)) binding
  in
  let n = Array.length tests in
  let ms = Array.make n 0. in
  let costs =
    Option.map
      (fun _ ->
        {
          words = Array.make n 0.;
          steps = Array.make n 0;
          checks = Array.make n 0;
          iters = Array.make n 0;
          kernels = Array.make n 0;
        })
      trace
  in
  let checked = ref [] in
  let loop () =
    Option.iter (fun p -> journal_start p.journal ~tests:n) persist;
    let t0 = now_ms () in
    Array.iteri
      (fun k test ->
        (match (trace, costs) with
        | Some tr, Some c ->
            let w0 = Gc.minor_words () in
            let s0 = Tel.counter_value "smt/search_steps"
            and c0 = Tel.counter_value "smt/check"
            and i0 = Tel.counter_value "grad/iterations"
            and k0 = Tel.counter_value "exec/kernel_runs" in
            let a = now_ms () in
            let r = Trace.with_test tr k (fun () -> Trace.span tr Trace.l_test (fun () -> body ~pos:k test)) in
            ms.(k) <- now_ms () -. a;
            c.words.(k) <- Gc.minor_words () -. w0;
            c.steps.(k) <- Tel.counter_value "smt/search_steps" - s0;
            c.checks.(k) <- Tel.counter_value "smt/check" - c0;
            c.iters.(k) <- Tel.counter_value "grad/iterations" - i0;
            c.kernels.(k) <- Tel.counter_value "exec/kernel_runs" - k0;
            Option.iter (fun gb -> checked := gb :: !checked) r
        | _ ->
            let a = now_ms () in
            ignore (body ~pos:k test);
            ms.(k) <- now_ms () -. a);
        Option.iter drain persist;
        Option.iter
          (fun c -> if k mod calib_stride n = 0 then Calib.round c)
          calib)
      tests;
    let wall_ms = now_ms () -. t0 in
    Option.iter
      (fun p -> journal_finish p.journal t ~tests:n ~wall_ms ~saved:p.saved ~dups:p.dups)
      persist;
    wall_ms
  in
  let wall_ms = if wl = Suite_hunt then Faults.with_bugs (all_bug_ids ()) loop else loop () in
  let index_bytes, journal_events, saved, dups =
    match persist with
    | None -> ("", 0, 0, 0)
    | Some p ->
        close_out p.journal_oc;
        Journal.close p.journal;
        let bytes = if Sys.file_exists p.index_path then Suite.read_file p.index_path else "" in
        (bytes, Journal.events_written p.journal, p.saved, p.dups)
  in
  {
    ms;
    wall_ms;
    tally = t;
    cov = Cov.count (Cov.snapshot ());
    index_bytes;
    journal_events;
    saved;
    dups;
    checked = List.rev !checked;
    costs;
    o0_calls = !o0_calls;
  }

(* The result digest: verdicts, failure keys, triggered bugs, coverage and
   (suite-hunt) the corpus index bytes.  Runs of one workload must agree. *)
type digest = {
  d_verdicts : (string * int) list;
  d_keys : string list;
  d_triggered : (string * int) list;
  d_cov : int;
  d_index : string;
}

let digest_of_pass p =
  {
    d_verdicts = sorted p.tally.verdicts;
    d_keys = List.map fst (sorted p.tally.keys);
    d_triggered = sorted p.tally.triggered;
    d_cov = p.cov;
    d_index = p.index_bytes;
  }

let show_digest d =
  let counts l = String.concat "," (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) l) in
  Printf.sprintf "verdicts[%s] keys=%d/%s triggered[%s] cov=%d index.jsonl=%dB/%s"
    (counts d.d_verdicts) (List.length d.d_keys)
    (Digest.to_hex (Digest.string (String.concat "\n" d.d_keys)))
    (counts d.d_triggered) d.d_cov (String.length d.d_index)
    (Digest.to_hex (Digest.string d.d_index))

(* ------------------------------------------------------------------ *)
(* Set-up: load the inputs and let lazy process state settle             *)

let load_tests wl =
  let tests =
    match wl with
    | Fuzz_10n ->
        Array.init fuzz_tests (fun i ->
            { t_pos = i; t_index = i; t_seed = Splitmix.derive ~root:fuzz_root ~index:i; t_graph = None })
    | Suite_retest | Suite_hunt ->
        let models = Suite.load suite_dir in
        let models = if wl = Suite_hunt then Array.sub models 0 hunt_models else models in
        Array.mapi
          (fun t_pos (m : Suite.model) ->
            { t_pos; t_index = m.m_index; t_seed = m.m_seed; t_graph = Some m.m_graph })
          models
  in
  tests

(* Warm-up tests never count: fuzz-10n takes them from the negative index
   space at its root (disjoint from the measured tests), the suites from
   their first stored models, retested without persistence; neither
   depends on the seed. *)
let warm_up wl tests =
  let tally = fresh_tally () in
  for i = 0 to warmup_tests - 1 do
    match wl with
    | Fuzz_10n ->
        absorb tally
          (Pfuzz.run_one ~systems:Systems.all
             ~seed:(Splitmix.derive ~root:fuzz_root ~index:(-1 - i))
             ())
    | Suite_retest | Suite_hunt ->
        let test = tests.(i) in
        ignore
          (check_model untraced ~systems:Systems.all ~hunt:false tally ~pos:i
             ~seed:test.t_seed (Option.get test.t_graph))
  done

(* One set-up, from a collected heap as in a fresh process, after
   [calib_rounds_per_setup] host-speed rounds into [calib]. *)
let setup_once wl calib =
  Gc.full_major ();
  for _ = 1 to calib_rounds_per_setup do
    Calib.round calib
  done;
  let t0 = now_ms () in
  let tests = load_tests wl in
  warm_up wl tests;
  cold_start ();
  (tests, (now_ms () -. t0) /. 1000.)

let setup wl = fst (setup_once wl (Calib.create ()))

(* ------------------------------------------------------------------ *)
(* Result line                                                          *)

let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed m

let show_metrics metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "  %-28s %14.4f %s\n" name v unit) metrics

let invalid p = count p.tally.verdicts "gen_fail" + count p.tally.verdicts "error"

let checks p =
  List.fold_left (fun a k -> a + count p.tally.verdicts k) 0
    [ "pass"; "skipped"; "semantic"; "crash" ]

(* Scratch space of this process, removed at exit. *)
let tmp_dir = Filename.concat run_dir (Printf.sprintf "tmp-%d" (Unix.getpid ()))

let pass_dir wl ~seed k =
  Filename.concat tmp_dir (Printf.sprintf "%s-s%d-pass%d" (workload_name wl) seed k)

(* ------------------------------------------------------------------ *)
(* End-to-end run: telemetry off, whole passes until the time is spent   *)

(* One measured pass of an end-to-end run. *)
type measured = {
  m_pass : pass;
  m_by_pos : float array;  (** per-test latency by stored position *)
  m_scaled : float array;  (** the same at the reference speed *)
  m_rss : float;  (** peak RSS, MB *)
  m_calib : Calib.t;  (** host-speed rounds taken through the pass *)
}

let e2e wl ~seed ~seconds =
  Tel.set_enabled false;
  (* [setup_reps] set-ups before the passes and one after each, so that
     set-up samples the host over the whole run as the passes do.  The
     passes use the first copy of the inputs; the others are garbage by
     the next compaction. *)
  let setups = ref [] in
  let set_up () =
    let c = Calib.create () in
    let tests, s = setup_once wl c in
    setups := (s, c) :: !setups;
    tests
  in
  let tests = set_up () in
  for _ = 2 to setup_reps do
    ignore (set_up ())
  done;
  let n = Array.length tests in
  let passes = ref [] and spent = ref 0. in
  let budget_ms = seconds *. 1000. in
  (* two passes for the check, more while the next is predicted to end
     within the budget *)
  while
    let k = List.length !passes in
    k < 2 || !spent +. (!spent /. float k) <= budget_ms
  do
    let k = List.length !passes in
    let order = permute ~seed ~pass:k tests in
    (* every pass starts from a compacted heap, whatever the last left *)
    Gc.compact ();
    cold_start ();
    reset_peak_rss ();
    let calib = Calib.create () in
    let p = run_pass ~calib wl order ~dir:(pass_dir wl ~seed k) in
    let rss = peak_rss_mb () in
    (* latencies by stored position, so passes in different orders line
       up; each scaled by the rounds taken next to it *)
    let by_pos = Array.make n 0. and scaled = Array.make n 0. in
    let local = Calib.local_factors calib in
    Array.iteri
      (fun i t ->
        by_pos.(t.t_pos) <- p.ms.(i);
        scaled.(t.t_pos) <- p.ms.(i) *. local.(min (Array.length local - 1) (i / calib_stride n)))
      order;
    spent := !spent +. p.wall_ms;
    passes :=
      { m_pass = p; m_by_pos = by_pos; m_scaled = scaled; m_rss = rss; m_calib = calib }
      :: !passes;
    ignore (set_up ())
  done;
  let passes = List.rev !passes and setups = List.rev !setups in
  let first = (List.hd passes).m_pass in
  let d0 = digest_of_pass first in
  let agree = List.for_all (fun m -> digest_of_pass m.m_pass = d0) passes in
  let attempted = n * List.length passes in
  let failed = List.fold_left (fun a m -> a + invalid m.m_pass) 0 passes in
  (* Each test's latency is its median over the passes, and so is the time
     a pass spends outside tests (persistence, the loop): one unlucky order
     or a slow moment of the host moves one sample, not the figure.  Peak
     RSS is the first pass's: the resident set grows from pass to pass on
     fuzz-10n, so a median would depend on the number of passes.
     [scaled] expresses the times at the reference host speed (calib.ml):
     each test's by the rounds taken next to it, the rest of a pass's by
     all its rounds, each set-up's by its own. *)
  let over_passes f = median (Array.of_list (List.map f passes)) in
  let times ~scaled =
    let scale c = if scaled then Calib.factor c else 1. in
    let per_test =
      Array.init n (fun i ->
          over_passes (fun m -> if scaled then m.m_scaled.(i) else m.m_by_pos.(i)))
    in
    let outside =
      over_passes (fun m ->
          let in_tests = Array.fold_left ( +. ) 0. m.m_by_pos in
          (m.m_pass.wall_ms -. in_tests -. Calib.spent_ms m.m_calib) *. scale m.m_calib)
    in
    let pass_ms = Array.fold_left ( +. ) outside per_test in
    ( float n /. (pass_ms /. 1000.),
      median per_test,
      percentile 0.99 per_test,
      median (Array.of_list (List.map (fun (s, c) -> s *. scale c) setups)) )
  in
  let tests_per_s, p50, p99, setup_s = times ~scaled:true in
  let share a b = if b = 0 then 0. else float a /. float b in
  let metrics =
    [
      ("tests_per_s", "1/s", tests_per_s);
      ("test_ms_p50", "ms", p50);
      ("test_ms_p99", "ms", p99);
      ("setup_s", "s", setup_s);
      ("peak_rss_mb", "MB", (List.hd passes).m_rss);
      ("valid_share", "ratio", 1. -. share (invalid first) n);
      ("skipped_share", "ratio", share (count first.tally.verdicts "skipped") (checks first));
      ("cov_edges", "count", float first.cov);
      ("unique_failures", "count", float (Hashtbl.length first.tally.keys));
    ]
  in
  Printf.printf "workload %s seed %d: %d passes x %d tests (%d beyond p99)\n"
    (workload_name wl) seed (List.length passes) n
    (n - int_of_float (ceil (0.99 *. float n)));
  let each f l = String.concat " " (List.map f l) in
  Printf.printf
    "pass walls, in tests (ms): %s\npass host speed (ms; reference %.3f): %s\n\
     pass peak RSS (MB): %s\nset-ups (s@host speed ms): %s\n"
    (each
       (fun m ->
         Printf.sprintf "%.1f,%.1f" m.m_pass.wall_ms (Array.fold_left ( +. ) 0. m.m_by_pos))
       passes)
    Calib.reference_ms
    (each (fun m -> Printf.sprintf "%.3f" (Calib.speed_ms m.m_calib)) passes)
    (each (fun m -> Printf.sprintf "%.1f" m.m_rss) passes)
    (each (fun (s, c) -> Printf.sprintf "%.3f@%.3f" s (Calib.speed_ms c)) setups);
  let raw_tps, raw_p50, raw_p99, raw_setup = times ~scaled:false in
  Printf.printf "unscaled: %.3f tests/s, p50 %.4f ms, p99 %.3f ms, set-up %.4f s\n" raw_tps
    raw_p50 raw_p99 raw_setup;
  Printf.printf "digest: %s\n" (show_digest d0);
  if not agree then
    List.iteri
      (fun k m -> Printf.printf "pass %d digest: %s\n" k (show_digest (digest_of_pass m.m_pass)))
      passes;
  show_metrics metrics;
  (* two figures the result line leaves out: each is 0 on some workload *)
  Printf.printf "  %-28s %14.4f ratio\n  %-28s %14d count\n" "invalid_share"
    (share (invalid first) n) "bugs_triggered"
    (Hashtbl.length first.tally.triggered);
  print_result ~correct:agree ~attempted ~failed metrics;
  if not agree then exit 1

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer numbers, overhead and correctness cross-checks *)

(* The plan path must match the Eval interpreter bit for bit. *)
let oracle_agrees (g, binding) =
  let plan = match Harness.reference_outputs g binding with r -> Ok r | exception e -> Error e in
  let interp = match Runner.run g binding with r -> Ok r | exception e -> Error e in
  match (plan, interp) with
  | Ok (outs, bad), Ok all ->
      bad = List.exists (fun (_, v) -> Nd.has_bad v) all
      && List.for_all (fun (id, v) -> Nd.equal v (List.assoc id all)) outs
  | Error _, Error _ -> true
  | _ -> false

let work (c : Metrics.counters) name =
  Option.value ~default:0 (List.assoc_opt name c.Metrics.mc_work)

let ratio a b = if b = 0 then 0. else float a /. float b

let write_costs path tests (p : pass) (self : float array array) (c : costs) =
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "index\tseed\ttest_ms\t%s\twords\tsmt_steps\tsmt_checks\tgrad_iters\tkernel_runs\n"
        (String.concat "\t" (Array.to_list (Array.map (fun l -> l ^ "_self_ms") Trace.layers)));
      Array.iteri
        (fun k test ->
          Printf.fprintf oc "%d\t%d\t%.4f\t%s\t%.0f\t%d\t%d\t%d\t%d\n" test.t_index test.t_seed
            p.ms.(k)
            (String.concat "\t" (Array.to_list (Array.map (Printf.sprintf "%.4f") self.(k))))
            c.words.(k) c.steps.(k) c.checks.(k) c.iters.(k) c.kernels.(k))
        tests)

let traced wl ~seed =
  Tel.set_enabled false;
  let tests = setup wl in
  let tests = permute ~seed ~pass:0 tests in
  let n = Array.length tests in
  (* untraced reference pass over the same tests, in the same order *)
  cold_start ();
  let reference = run_pass wl tests ~dir:(pass_dir wl ~seed 0) in
  let ref_digest = digest_of_pass reference and ref_ms = reference.wall_ms in
  let tr = Trace.create () in
  cold_start ();
  let p, c = Metrics.capture (fun () -> run_pass ~trace:tr wl tests ~dir:(pass_dir wl ~seed 1)) in
  Tel.set_enabled false;
  let d = digest_of_pass p in
  let oracle_bad = List.length (List.filter (fun gb -> not (oracle_agrees gb)) p.checked) in
  let correct = d = ref_digest && oracle_bad = 0 in
  let self = Trace.self_by_test tr ~ntests:n in
  let layer_ms = Trace.self_total tr in
  (* the traced pass wall: tests, persistence and the loop between them *)
  let traced_ms = p.wall_ms in
  let accounted =
    List.fold_left (fun a l -> if l = Trace.l_test then a else a +. layer_ms l) 0.
      (List.init (Array.length Trace.layers) Fun.id)
  in
  let costs = Option.get p.costs in
  let tps_ref = float n /. (ref_ms /. 1000.) and tps_traced = float n /. (traced_ms /. 1000.) in
  let gen_d = Trace.durations_of tr ~ntests:n Trace.l_gen in
  let search_d = Trace.durations_of tr ~ntests:n Trace.l_search in
  let w = work c in
  let metrics =
    [
      ("gen.ms", "ms", layer_ms Trace.l_gen);
      ("gen.ms_p50", "ms", median gen_d);
      ("gen.ms_p99", "ms", percentile 0.99 gen_d);
      ("gen.fail", "count", float (count p.tally.verdicts "gen_fail"));
      ( "gen.insert_accept_ratio", "ratio",
        ratio (w "gen/forward_ok" + w "gen/backward_ok")
          (w "gen/forward_attempts" + w "gen/backward_attempts") );
      ("smt.search_steps", "count", float (w "smt/search_steps"));
      ("smt.check", "count", float (w "smt/check"));
      ("smt.backtracks", "count", float (w "smt/backtracks"));
      ("smt.unknown", "count", float (w "smt/unknown"));
      ( "smt.prescreen_resolved_ratio", "ratio",
        ratio (w "smt/prescreen/concrete" + w "smt/prescreen/unsat")
          (w "smt/prescreen/concrete" + w "smt/prescreen/unsat" + w "smt/prescreen/miss") );
      ( "smt.cache_hit_ratio", "ratio",
        ratio (w "smt/cache/hit_canon" + w "smt/cache/hit_frame")
          (w "smt/cache/hit_canon" + w "smt/cache/hit_frame" + w "smt/cache/miss") );
      ("search.ms", "ms", layer_ms Trace.l_search);
      ("search.ms_p50", "ms", median search_d);
      ("search.ms_p99", "ms", percentile 0.99 search_d);
      ("grad.iterations", "count", float (w "grad/iterations"));
      ("grad.restarts", "count", float (w "grad/restarts"));
      ("grad.timeouts", "count", float (w "grad/timeouts"));
      ("exec.kernel_runs", "count", float (w "exec/kernel_runs"));
      ("exec.plan_compile", "count", float (w "exec/plan_compile"));
      ( "exec.plan_hit_ratio", "ratio",
        ratio (w "exec/plan_hit") (w "exec/plan_hit" + w "exec/plan_compile") );
      ( "exec.arena_hit_ratio", "ratio",
        ratio (w "exec/arena_hit") (w "exec/arena_hit" + w "exec/arena_miss") );
      ("exec.plan_fallback_nodes", "count", float (w "exec/plan_fallback_nodes"));
      ("export.ms", "ms", layer_ms Trace.l_export);
      ("oracle.ms", "ms", layer_ms Trace.l_oracle);
      ("compile_run.ms.OxRT", "ms", layer_ms (Trace.l_compile "OxRT"));
      ("compile_run.ms.Lotus", "ms", layer_ms (Trace.l_compile "Lotus"));
      ("compile_run.ms.TRT", "ms", layer_ms (Trace.l_compile "TRT"));
      ("compile_run.o0_calls", "count", float p.o0_calls);
      ("attribute.ms", "ms", layer_ms Trace.l_attribute);
      ("save.ms", "ms", layer_ms Trace.l_save);
      ("corpus.saved", "count", float p.saved);
      ("corpus.dup_ratio", "ratio", ratio p.dups (p.saved + p.dups));
      ("journal.ms", "ms", layer_ms Trace.l_journal);
      ("journal.events", "count", float p.journal_events);
      ("alloc.words_per_test", "words", Metrics.alloc_words c /. float n);
      ("bugs_triggered", "count", float (Hashtbl.length p.tally.triggered));
      ("trace.tests_per_s", "1/s", tps_traced);
      ("trace.overhead_tests_per_s", "1/s", tps_ref -. tps_traced);
      ("trace.accounted_share", "ratio", accounted /. traced_ms);
    ]
  in
  mkdir_p run_dir;
  let stem = Printf.sprintf "%s-s%d" (workload_name wl) seed in
  let spans_path = Filename.concat run_dir ("spans-" ^ stem ^ ".jsonl") in
  let costs_path = Filename.concat run_dir ("costs-" ^ stem ^ ".tsv") in
  Trace.write_jsonl tr ~origin:(if tr.Trace.n > 0 then tr.Trace.start.(0) else 0.) spans_path;
  write_costs costs_path tests p self costs;
  Printf.printf "workload %s seed %d (traced): %d tests, %d spans -> %s, cost rows -> %s\n"
    (workload_name wl) seed n tr.Trace.n spans_path costs_path;
  Printf.printf "reference digest: %s\ntraced digest:    %s\n" (show_digest ref_digest)
    (show_digest d);
  Printf.printf "oracle: plan path vs Eval on %d models, %d mismatches\n"
    (List.length p.checked) oracle_bad;
  Printf.printf "reference %.1f tests/s, traced %.1f tests/s; layer self times cover %.1f%% of traced time\n"
    tps_ref tps_traced (100. *. accounted /. traced_ms);
  Printf.printf "tail exemplars (top tests by words allocated):\n";
  let order = Array.init n (fun k -> k) in
  Array.sort (fun a b -> compare costs.words.(b) costs.words.(a)) order;
  Array.iteri
    (fun r k ->
      if r < 5 then begin
        let parts =
          List.filter_map
            (fun l ->
              if self.(k).(l) >= 0.05 then Some (Printf.sprintf "%s=%.1f" Trace.layers.(l) self.(k).(l))
              else None)
            (List.init (Array.length Trace.layers) Fun.id)
        in
        Printf.printf "  index %d seed %d: %.0f words, %d smt steps, %d grad iters, %.1f ms [%s]\n"
          tests.(k).t_index tests.(k).t_seed costs.words.(k) costs.steps.(k) costs.iters.(k)
          p.ms.(k) (String.concat " " parts)
      end)
    order;
  show_metrics metrics;
  print_result ~correct ~attempted:n ~failed:(invalid p) metrics;
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Self-test: one workload twice from a cold start, same work counters  *)

let selftest wl =
  Tel.set_enabled false;
  let tests = setup wl in
  let tests = permute ~seed:1 ~pass:0 tests in
  let capture k =
    cold_start ();
    Metrics.capture (fun () -> run_pass wl tests ~dir:(pass_dir wl ~seed:1 k))
  in
  let p1, c1 = capture 0 in
  let p2, c2 = capture 1 in
  let diffs = Metrics.work_diff c1 c2 in
  let d1 = digest_of_pass p1 in
  let same_digest = d1 = digest_of_pass p2 in
  Printf.printf "selftest %s: %d tests, %d work counters, %d differ; digests %s\n"
    (workload_name wl) (Array.length tests) (List.length c1.Metrics.mc_work)
    (List.length diffs) (if same_digest then "agree" else "DIFFER");
  List.iter (fun (k, a, b) -> Printf.printf "  %s: %d vs %d\n" k a b) diffs;
  (* the per-test loop is the campaign: the real entry, in index order,
     must reach the same verdicts, keys and coverage *)
  let campaign_agrees =
    wl <> Fuzz_10n
    ||
    (cold_start ();
     Tel.set_enabled false;
     let r = Pfuzz.fuzz ~jobs:1 ~root_seed:fuzz_root ~budget:(Pool.Tests fuzz_tests) () in
     let d =
       {
         d_verdicts = r.r_verdicts;
         d_keys = r.r_failure_keys;
         d_triggered = r.r_triggered;
         d_cov = Cov.count r.r_coverage;
         d_index = "";
       }
     in
     Printf.printf "Pfuzz.fuzz digest: %s\nloop digest:       %s\n" (show_digest d)
       (show_digest d1);
     d = d1)
  in
  if diffs <> [] || (not same_digest) || not campaign_agrees then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME fuzz-10n | suite-retest | suite-hunt");
      ("--seed", Arg.Set_int seed, "N orders the workload's tests");
      ("--seconds", Arg.Set_float seconds, "S time to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced run");
    ]
  in
  let cmd = ref None in
  Arg.parse specs (fun a -> if !cmd = None then cmd := Some a else raise (Arg.Bad a))
    "bench.exe (run|selftest|gen-suite) [options]";
  let wl () =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> raise (Arg.Bad ("unknown workload " ^ !workload))
  in
  at_exit (fun () -> rm_rf tmp_dir);
  match !cmd with
  | Some "run" -> if !trace = 0 then e2e (wl ()) ~seed:!seed ~seconds:!seconds else traced (wl ()) ~seed:!seed
  | Some "selftest" ->
      if !workload = "" then workload := "suite-retest";
      selftest (wl ())
  | Some "gen-suite" -> print_endline (Suite.generate suite_dir)
  | _ ->
      prerr_endline "usage: bench.exe (run|selftest|gen-suite) [options]";
      exit 2
