(* Schema smoke tests (attached to `dune runtest`): run a short campaign,
   write the report the way `nnsmith fuzz --telemetry` and
   `bench/main.exe --telemetry` do, parse it back, and fail loudly if the
   schema rots; then save a deterministic crash to a bug-report corpus,
   dedup it, and replay it, failing on any meta-schema or verdict drift. *)

module Tel = Nnsmith_telemetry.Telemetry
module D = Nnsmith_difftest
module Corpus = Nnsmith_corpus.Corpus

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("smoke: " ^ m); exit 1) fmt

let temp_dir tag =
  let path = Filename.temp_file tag "" in
  Sys.remove path;
  path

let () =
  Nnsmith_faults.Faults.deactivate_all ();
  Tel.set_enabled true;
  let r =
    D.Pfuzz.coverage ~jobs:1 ~generator:"NNSmith" ~system:D.Systems.oxrt
      ~root_seed:2024
      ~budget:(Nnsmith_parallel.Pool.Tests 40)
      ~gen_of_seed:(fun seed -> D.Generators.nnsmith ~seed ())
      ()
  in
  if r.r_stats.st_tests <> 40 then
    die "campaign ran %d tests, expected 40" r.r_stats.st_tests;
  let file = Filename.temp_file "nnsmith_telemetry" ".jsonl" in
  Tel.append_jsonl file (Tel.snapshot ());
  let ic = open_in file in
  let line = try input_line ic with End_of_file -> die "empty report" in
  close_in ic;
  Sys.remove file;
  match Tel.snapshot_of_jsonl line with
  | Error m -> die "malformed JSONL: %s" m
  | Ok s ->
      let prefixed prefix =
        List.exists
          (fun (k, (sv : Tel.span_view)) ->
            sv.sv_total_ms > 0.
            && String.length k >= String.length prefix
            && String.sub k 0 (String.length prefix) = prefix)
          s.spans
      in
      List.iter
        (fun p -> if not (prefixed p) then die "no %s* span with time" p)
        [ "gen/"; "smt/"; "exec/" ];
      if s.counters = [] then die "no counters recorded";
      if not (List.mem_assoc "smt/solve_ms" s.histograms) then
        die "missing smt/solve_ms histogram";
      print_endline "telemetry smoke ok"

(* Corpus smoke: a crafted crash must save, dedup and replay drift-free. *)
let () =
  let module B = Nnsmith_baselines.Builder in
  let module Op = Nnsmith_ir.Op in
  let module Graph = Nnsmith_ir.Graph in
  let module Dtype = Nnsmith_tensor.Dtype in
  let dir = temp_dir "nnsmith_corpus_smoke" in
  Nnsmith_faults.Faults.with_bugs [ "lotus.import_matmul_vec" ] (fun () ->
      let g = Graph.empty in
      let g, a = B.input g Dtype.F32 [ 3 ] in
      let g, m = B.input g Dtype.F32 [ 3; 2 ] in
      let g, _ = B.op g Op.Mat_mul [ a; m ] in
      let binding =
        Nnsmith_ops.Runner.random_binding (Random.State.make [| 7 |]) g
      in
      let exported, export_bugs = D.Exporter.export g in
      let v = D.Harness.test ~exported D.Systems.lotus g binding in
      (match v with
      | D.Harness.Crash _ -> ()
      | _ -> die "crafted MatMul case did not crash Lotus");
      let save c =
        D.Report.save_failure c ~system:D.Systems.lotus ~generator:"smoke"
          ~export_bugs g binding v
      in
      let c = Corpus.open_ dir in
      (match save c with
      | `Saved _ -> ()
      | _ -> die "first save did not create a case");
      (match save c with
      | `Duplicate _ -> ()
      | _ -> die "second save was not suppressed as duplicate");
      (* a fresh handle must load the index and every case bundle back *)
      let c2 = Corpus.open_ dir in
      if Corpus.size c2 <> 1 then die "reopened corpus lost the case";
      (match save c2 with
      | `Duplicate _ -> ()
      | _ -> die "cross-run duplicate was re-saved");
      ignore (Corpus.load_all c2);
      List.iter
        (fun (o : D.Report.outcome) ->
          if o.rp_drift then
            die "replay drift on %s: %s -> %s %s" o.rp_case o.rp_expected_kind
              o.rp_got_kind o.rp_note)
        (D.Report.replay c2));
  print_endline "corpus smoke ok"

(* Corpus wiring: a tiny all-faults hunt with a report directory must save
   cases and leave a loadable, drift-free corpus behind. *)
let () =
  let dir = temp_dir "nnsmith_hunt_corpus" in
  let r =
    D.Pfuzz.hunt ~jobs:1 ~report_dir:dir ~root_seed:2024
      ~budget:(Nnsmith_parallel.Pool.Tests 25) ()
  in
  if r.r_saved = 0 then die "hunt corpus smoke: 25-test hunt saved no cases";
  let c = Corpus.open_ dir in
  ignore (Corpus.load_all c);
  let drifted =
    List.filter (fun (o : D.Report.outcome) -> o.rp_drift) (D.Report.replay c)
  in
  if drifted <> [] then
    die "%d of %d hunted case(s) drifted on replay" (List.length drifted)
      (Corpus.size c);
  Printf.printf "hunt corpus smoke ok (%d case(s) saved and replayed)\n"
    (Corpus.size c)

(* Execution-plan wiring: over a handful of fixed-seed models, the compiled
   plan must produce reference outputs bitwise equal to the interpreter's,
   including across repeated runs of one plan. *)
let () =
  let module Gen = Nnsmith_core.Gen in
  let module Config = Nnsmith_core.Config in
  let module Graph = Nnsmith_ir.Graph in
  let module Nd = Nnsmith_tensor.Nd in
  let module Runner = Nnsmith_ops.Runner in
  let module Plan = Nnsmith_exec.Plan in
  Nnsmith_faults.Faults.deactivate_all ();
  let checked = ref 0 in
  for seed = 1 to 24 do
    match Gen.generate { Config.default with seed = seed * 17; max_nodes = 10 } with
    | exception Gen.Gen_failure _ -> ()
    | g ->
        incr checked;
        (* oracle parity: plan vs interpreter, two rounds *)
        let binding = Runner.random_binding (Random.State.make [| seed + 1 |]) g in
        let all = Runner.run g binding in
        let want =
          ( List.map
              (fun (n : Graph.node) ->
                (n.Graph.id, List.assoc n.Graph.id all))
              (Graph.outputs g),
            List.exists (fun (_, v) -> Nd.has_bad v) all )
        in
        let plan = Plan.build g in
        for _ = 1 to 2 do
          let got = Plan.run_reference plan binding in
          if snd got <> snd want then
            die "exec smoke: seed %d bad-flag differs" seed;
          if
            not
              (List.for_all2
                 (fun (i, x) (j, y) -> i = j && Nd.equal x y)
                 (fst want) (fst got))
          then die "exec smoke: seed %d reference outputs differ" seed
        done
  done;
  if !checked < 12 then die "exec smoke: only %d models generated" !checked;
  Printf.printf "exec plan smoke ok (%d model(s) checked)\n" !checked

(* Parallel wiring: a 2-domain mini-campaign must run its exact test
   budget, shard it across both workers, and find the same failure set as
   the inline single-domain run of the same root seed. *)
let () =
  Nnsmith_faults.Faults.activate_all ();
  let run jobs =
    D.Pfuzz.fuzz ~jobs ~systems:[ D.Systems.lotus ] ~root_seed:2024
      ~budget:(Nnsmith_parallel.Pool.Tests 12) ()
  in
  let r2 = run 2 in
  let s = r2.r_stats in
  if s.st_jobs <> 2 then die "parallel smoke: expected 2 workers";
  if s.st_tests <> 12 then
    die "parallel smoke: ran %d tests, expected 12" s.st_tests;
  List.iter
    (fun (w : Nnsmith_parallel.Pool.worker_report) ->
      if w.wr_tests <> 6 then
        die "parallel smoke: worker %d ran %d tests, expected 6" w.wr_worker
          w.wr_tests)
    s.st_workers;
  if r2.r_failure_keys = [] then
    die "parallel smoke: all-faults lotus campaign found no failures";
  let r1 = run 1 in
  if r1.r_failure_keys <> r2.r_failure_keys then
    die "parallel smoke: jobs=1 and jobs=2 failure sets differ";
  Nnsmith_faults.Faults.deactivate_all ();
  Printf.printf "parallel smoke ok (%d shared failure key(s))\n"
    (List.length r2.r_failure_keys)

(* Journal + dashboard wiring: a journaled 2-domain campaign must leave a
   clean journal whose aggregates the dashboard renders as balanced,
   NaN-free HTML with a non-empty triage table. *)
let () =
  let module J = Nnsmith_journal.Journal in
  let module Dash = Nnsmith_dashboard.Dashboard in
  Nnsmith_faults.Faults.activate_all ();
  Tel.reset ();
  let dir = temp_dir "nnsmith_dash_smoke" in
  let j = J.create ~path:(J.in_dir dir) () in
  let r =
    D.Pfuzz.fuzz ~jobs:2 ~journal:j ~report_dir:dir
      ~systems:[ D.Systems.oxrt ] ~root_seed:11
      ~budget:(Nnsmith_parallel.Pool.Tests 24) ()
  in
  J.close j;
  Nnsmith_faults.Faults.deactivate_all ();
  if r.r_saved = 0 then die "dashboard smoke: campaign saved no cases";
  (match J.read_file (J.in_dir dir) with
  | Error m -> die "dashboard smoke: journal unreadable: %s" m
  | Ok jr ->
      if jr.J.torn_tail || jr.J.bad_lines > 0 then
        die "dashboard smoke: journal not clean";
      let has p = List.exists p jr.J.events in
      if not (has (function J.Start _ -> true | _ -> false)) then
        die "dashboard smoke: no Start event";
      if not (has (function J.Summary _ -> true | _ -> false)) then
        die "dashboard smoke: no Summary event";
      if not (has (function J.Bug _ -> true | _ -> false)) then
        die "dashboard smoke: no Bug events");
  let html = Dash.of_dir ~bench_dir:dir dir in
  let contains needle =
    let n = String.length html and m = String.length needle in
    let rec go i = i + m <= n && (String.sub html i m = needle || go (i + 1)) in
    go 0
  in
  let count needle =
    let n = String.length html and m = String.length needle in
    let rec go i acc =
      if i + m > n then acc
      else go (i + 1) (if String.sub html i m = needle then acc + 1 else acc)
    in
    go 0 0
  in
  if contains "NaN" then die "dashboard smoke: NaN leaked into the HTML";
  if count "<section>" <> count "</section>" then
    die "dashboard smoke: unbalanced <section> tags";
  if count "<table" <> count "</table>" then
    die "dashboard smoke: unbalanced <table> tags";
  if not (contains "Bug triage") then die "dashboard smoke: no triage section";
  if not (contains "<td>") then die "dashboard smoke: empty triage table";
  Printf.printf "journal + dashboard smoke ok (%d byte(s) of HTML)\n"
    (String.length html)
