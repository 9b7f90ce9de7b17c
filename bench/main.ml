(* Benchmark harness, with two jobs:

   - the paper's evaluation (§5): every table, figure and ablation,
     scaled from 4-hour campaigns to seconds;
   - the deterministic counter gate: the [solver_cache], [prescreen] and
     [gradsearch] rounds record their work counters in
     bench/history.jsonl, and the [check-determinism] and [regress] verbs
     gate on them.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --only fig4  -- one experiment
     dune exec bench/main.exe -- --budget 10000
                                              -- 10 s per campaign
     dune exec bench/main.exe -- regress --budget 400
     dune exec bench/main.exe -- check-determinism --budget 400

   End-to-end speed is measured by the campaign benchmark in perfbench/
   (BENCHMARK.json), not here.  The experiment ids and their mapping to
   paper artefacts are indexed in DESIGN.md; EXPERIMENTS.md records
   paper-vs-measured outcomes. *)

module Cov = Nnsmith_coverage.Coverage
module Faults = Nnsmith_faults.Faults
module Config = Nnsmith_core.Config
module Gen = Nnsmith_core.Gen
module Graph = Nnsmith_ir.Graph
module Runner = Nnsmith_ops.Runner
module Search = Nnsmith_grad.Search
module Vulnerability = Nnsmith_ops.Vulnerability
module Tel = Nnsmith_telemetry.Telemetry
module Pool = Nnsmith_parallel.Pool
module D = Nnsmith_difftest

let budget_ms = ref 3000.
let only : string option ref = ref None
let telemetry_out : string option ref = ref None

let section title =
  Printf.printf "\n================ %s ================\n%!" title

let pct a b = if b = 0 then 0. else 100. *. float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Campaigns: the figures run the campaign engine (Pfuzz) on one      *)
(* worker.  Cutoffs are wall-clock because the paper compares fuzzers  *)
(* at equal time; every input search is iteration-capped, so the clock *)
(* only decides how many tests run, never what one computes.           *)

let coverage_campaign ?(budget_ms = !budget_ms) ~system ~root_seed name
    gen_of_seed =
  D.Pfuzz.coverage ~jobs:1 ~generator:name ~system ~root_seed
    ~budget:(Pool.Time_ms budget_ms) ~gen_of_seed ()

(* The one curve of a [jobs:1] coverage campaign. *)
let curve (r : D.Pfuzz.result) =
  match r.r_curves with [ c ] -> c | _ -> []

(* Call [step] until [budget_ms] of wall clock has passed (checked before
   each call, like the pool's deadline); returns the number of calls.  For
   the loops that are not difftest campaigns: TZer's IR mutations and
   generation-only operator-instance counts. *)
let repeat_for ~budget_ms step =
  let start = Tel.now_ms () and n = ref 0 in
  while Tel.now_ms () -. start < budget_ms do
    step ();
    incr n
  done;
  !n

(* Generation-only loop counting unique operator instances (Figure 9):
   returns (tests, unique instances). *)
let op_instances ~budget_ms (gen : D.Generators.t) =
  let insts = D.Opinst.create () in
  let tests =
    repeat_for ~budget_ms (fun () ->
        Option.iter (fun g -> ignore (D.Opinst.add insts g)) (gen.next ()))
  in
  (tests, D.Opinst.count insts)

(* Shared coverage campaigns (figs 4, 5, 6, 7 reuse these runs). *)

type campaign_set = {
  per_system : (string * (string * D.Pfuzz.result) list) list;
      (** system -> fuzzer -> result *)
}

let run_campaigns () =
  Faults.deactivate_all ();
  let gens =
    [
      ("NNSmith", fun seed -> D.Generators.nnsmith ~seed ());
      ("GraphFuzzer", fun seed -> D.Generators.graphfuzzer ~seed ());
      ("LEMON", fun seed -> D.Generators.lemon ~seed ());
    ]
  in
  let per_system =
    List.map
      (fun (sys : D.Systems.t) ->
        ( sys.s_name,
          List.map
            (fun (name, gen_of_seed) ->
              ( name,
                coverage_campaign ~system:sys ~root_seed:20230325 name
                  gen_of_seed ))
            gens ))
      D.Systems.open_source
  in
  { per_system }

let campaigns = lazy (run_campaigns ())

let sample_points (points : D.Pfuzz.point list) n =
  let arr = Array.of_list points in
  let len = Array.length arr in
  if len = 0 then []
  else
    List.init n (fun i ->
        arr.(min (len - 1) (((i + 1) * len / n) - 1)))

(* ------------------------------------------------------------------ *)
(* fig4/fig5/fig6: coverage over time / tests; all files and pass files *)

let fig456 () =
  let { per_system } = Lazy.force campaigns in
  section "Figure 4: total branch coverage over time (all files)";
  List.iter
    (fun (sys, runs) ->
      List.iter
        (fun (fuzzer, r) ->
          Printf.printf "%-6s %-12s" sys fuzzer;
          List.iter
            (fun (p : D.Pfuzz.point) ->
              Printf.printf " %6.1fs:%4d" (p.p_ms /. 1000.) p.p_total)
            (sample_points (curve r) 6);
          print_newline ())
        runs)
    per_system;
  section "Figure 4 (summary): final total coverage and ratio to 2nd best";
  List.iter
    (fun (sys, runs) ->
      let finals =
        List.map (fun (f, (r : D.Pfuzz.result)) -> (f, Cov.count r.r_coverage)) runs
      in
      let nn = List.assoc "NNSmith" finals in
      let best_baseline =
        List.fold_left
          (fun acc (f, c) -> if f = "NNSmith" then acc else max acc c)
          0 finals
      in
      List.iter (fun (f, c) -> Printf.printf "%-6s %-12s total=%d\n" sys f c) finals;
      Printf.printf "%-6s NNSmith / best-baseline = %.2fx\n" sys
        (float_of_int nn /. float_of_int (max 1 best_baseline)))
    per_system;
  section "Figure 5: total branch coverage over number of test cases";
  List.iter
    (fun (sys, runs) ->
      List.iter
        (fun (fuzzer, (r : D.Pfuzz.result)) ->
          Printf.printf "%-6s %-12s tests=%-6d" sys fuzzer r.r_stats.st_tests;
          List.iter
            (fun (p : D.Pfuzz.point) ->
              Printf.printf " %5d:%4d" p.p_tests p.p_total)
            (sample_points (curve r) 6);
          print_newline ())
        runs)
    per_system;
  section "Figure 6: total branch coverage over time (pass files only)";
  List.iter
    (fun (sys, runs) ->
      List.iter
        (fun (fuzzer, r) ->
          Printf.printf "%-6s %-12s" sys fuzzer;
          List.iter
            (fun (p : D.Pfuzz.point) ->
              Printf.printf " %6.1fs:%4d" (p.p_ms /. 1000.) p.p_pass)
            (sample_points (curve r) 6);
          print_newline ())
        runs)
    per_system

(* ------------------------------------------------------------------ *)
(* fig7: Venn decomposition of final coverage                          *)

let fig7 () =
  let { per_system } = Lazy.force campaigns in
  section "Figure 7: Venn decomposition of overall coverage";
  List.iter
    (fun (sys, runs) ->
      let get name = (List.assoc name runs).D.Pfuzz.r_coverage in
      let a = get "NNSmith" and b = get "GraphFuzzer" and c = get "LEMON" in
      let count = Cov.count in
      Printf.printf
        "%s: totals NNSmith=%d GraphFuzzer=%d LEMON=%d\n" sys (count a)
        (count b) (count c);
      Printf.printf
        "%s: unique NNSmith=%d GraphFuzzer=%d LEMON=%d | pairwise \
         NN^GF-only=%d NN^LE-only=%d GF^LE-only=%d | all=%d\n"
        sys
        (count (Cov.unique a [ b; c ]))
        (count (Cov.unique b [ a; c ]))
        (count (Cov.unique c [ a; b ]))
        (count (Cov.diff (Cov.inter a b) c))
        (count (Cov.diff (Cov.inter a c) b))
        (count (Cov.diff (Cov.inter b c) a))
        (count (Cov.inter a (Cov.inter b c))))
    per_system

(* ------------------------------------------------------------------ *)
(* fig8: NNSmith vs TZer on Lotus                                      *)

let fig8 () =
  section "Figure 8: NNSmith vs TZer on Lotus (graph vs low-level fuzzing)";
  Faults.deactivate_all ();
  (* TZer mutates Lotus's low-level IR directly: a local loop, no difftest *)
  let tzer_tests, tzer =
    Cov.reset ();
    let st = Nnsmith_baselines.Tzer.create ~seed:7 () in
    let tests =
      repeat_for ~budget_ms:!budget_ms (fun () -> Nnsmith_baselines.Tzer.step st)
    in
    (tests, Cov.snapshot ())
  in
  let nn =
    coverage_campaign ~system:D.Systems.lotus ~root_seed:20230325 "NNSmith"
      (fun seed -> D.Generators.nnsmith ~seed ())
  in
  let nnsmith = nn.r_coverage in
  let pr name tests cov =
    Printf.printf "%-8s tests=%-6d total=%-5d pass-only=%-5d\n" name tests
      (Cov.count cov) (Cov.count_pass cov)
  in
  pr "NNSmith" nn.r_stats.st_tests nnsmith;
  pr "TZer" tzer_tests tzer;
  let u_nn = Cov.unique nnsmith [ tzer ]
  and u_tz = Cov.unique tzer [ nnsmith ] in
  Printf.printf
    "unique (all files): NNSmith=%d TZer=%d | unique (pass files): \
     NNSmith=%d TZer=%d\n"
    (Cov.count u_nn) (Cov.count u_tz) (Cov.count_pass u_nn)
    (Cov.count_pass u_tz);
  Printf.printf
    "NNSmith/TZer total coverage ratio: %.2fx (paper: 1.4x)\n"
    (float_of_int (Cov.count nnsmith)
    /. float_of_int (max 1 (Cov.count tzer)))

(* ------------------------------------------------------------------ *)
(* fig9: unique operator instances with and without binning            *)

let fig9 () =
  section "Figure 9: normalized unique operator instances (binning ablation)";
  let with_bin =
    op_instances ~budget_ms:!budget_ms
      (D.Generators.nnsmith ~binning:true ~seed:11 ())
  and without_bin =
    op_instances ~budget_ms:!budget_ms
      (D.Generators.nnsmith ~binning:false ~seed:11 ())
  in
  let base = max 1 (snd without_bin) in
  let pr name (tests, insts) =
    Printf.printf "%-12s tests=%-6d unique-instances=%-6d normalized=%.2f\n"
      name tests insts
      (float_of_int insts /. float_of_int base)
  in
  pr "binning" with_bin;
  pr "no-binning" without_bin;
  Printf.printf "binning / no-binning = %.2fx (paper: 2.07x)\n"
    (float_of_int (snd with_bin) /. float_of_int base)

(* ------------------------------------------------------------------ *)
(* fig10: binning impact on coverage                                   *)

let fig10 () =
  section "Figure 10: impact of attribute binning on coverage";
  Faults.deactivate_all ();
  List.iter
    (fun (sys : D.Systems.t) ->
      let campaign binning =
        (coverage_campaign ~system:sys ~root_seed:23 "NNSmith" (fun seed ->
             D.Generators.nnsmith ~binning ~seed ()))
          .r_coverage
      in
      let with_bin = campaign true in
      let without_bin = campaign false in
      let u_with = Cov.unique with_bin [ without_bin ]
      and u_without = Cov.unique without_bin [ with_bin ] in
      Printf.printf
        "%-6s total: binning=%d no-binning=%d (+%.1f%%) | unique: \
         binning=%d no-binning=%d (%.1fx)\n"
        sys.s_name
        (Cov.count with_bin)
        (Cov.count without_bin)
        (100.
        *. (float_of_int (Cov.count with_bin)
            /. float_of_int (max 1 (Cov.count without_bin))
           -. 1.))
        (Cov.count u_with) (Cov.count u_without)
        (float_of_int (Cov.count u_with)
        /. float_of_int (max 1 (Cov.count u_without))))
    D.Systems.open_source

(* ------------------------------------------------------------------ *)
(* fig11: gradient-search effectiveness                                *)

let has_vulnerable g =
  List.exists
    (fun (n : Graph.node) -> Vulnerability.is_vulnerable n.Graph.op)
    (Graph.nodes g)

let fig11 () =
  section "Figure 11: gradient search vs sampling (models with >=1 vulnerable op)";
  let group size count =
    let rec collect acc seed =
      if List.length acc >= count then acc
      else begin
        let cfg = { Config.default with seed; max_nodes = size } in
        match Gen.generate cfg with
        | g when has_vulnerable g -> collect (g :: acc) (seed + 1)
        | _ | (exception Gen.Gen_failure _) -> collect acc (seed + 1)
      end
    in
    collect [] (size * 1000)
  in
  let n_models = 48 in
  let methods =
    [
      ("Sampling", Search.Sampling);
      ("Grad-noproxy", Search.Gradient_no_proxy);
      ("Grad+proxy", Search.Gradient);
    ]
  in
  List.iter
    (fun size ->
      let models = group size n_models in
      Printf.printf "-- %d-node group (%d models) --\n%!" size
        (List.length models);
      List.iter
        (fun (mname, m) ->
          List.iter
            (fun timeout ->
              let rng = Random.State.make [| size; timeout |] in
              let succ = ref 0 and total_ms = ref 0. in
              List.iter
                (fun g ->
                  let o =
                    Search.search ~budget_ms:(float_of_int timeout)
                      ~max_iters:max_int ~method_:m rng g
                  in
                  if o.binding <> None then incr succ;
                  total_ms := !total_ms +. o.elapsed_ms)
                models;
              Printf.printf
                "%-13s timeout=%2dms success=%5.1f%% avg-time=%5.2fms\n%!"
                mname timeout
                (pct !succ (List.length models))
                (!total_ms /. float_of_int (List.length models)))
            [ 8; 16; 32; 64 ])
        methods)
    [ 10; 20; 30 ]

(* ------------------------------------------------------------------ *)
(* tab1 / tab2: vulnerable operators and loss conversions              *)

let tab1 () =
  section "Table 1: vulnerable operators, domains and loss functions";
  Printf.printf "%-12s %-28s %-9s %s\n" "Operator" "Domain" "Violation" "Losses";
  List.iter
    (fun (op, domain, violation, losses) ->
      Printf.printf "%-12s %-28s %-9s %s\n" op domain violation losses)
    (Vulnerability.table_rows ())

let tab2 () =
  section "Table 2: tensor inequality -> loss conversion";
  Printf.printf "f(X) <= 0   ->   sum_x max(f(x), 0)\n";
  Printf.printf "f(X) <  0   ->   sum_x max(f(x) + eps, 0)   (eps = %g)\n"
    Vulnerability.eps;
  (* numeric sanity: loss positive iff domain violated, on Sqrt *)
  let nd v = Nnsmith_tensor.Nd.scalar_f Nnsmith_tensor.Dtype.F32 v in
  let sqrt_loss =
    match Vulnerability.of_op (Nnsmith_ir.Op.Unary Nnsmith_ir.Op.Sqrt) with
    | Some e -> List.hd e.losses
    | None -> assert false
  in
  Printf.printf "check: Sqrt loss at x=-2 -> %.1f (violated), at x=2 -> %.1f\n"
    (sqrt_loss.value [ nd (-2.) ])
    (sqrt_loss.value [ nd 2. ])

(* ------------------------------------------------------------------ *)
(* tab3: the seeded-bug study                                          *)

let tab3 () =
  section "Table 3: seeded-bug distribution (who can trigger what)";
  let hunt ?gen_of_seed name =
    ( name,
      D.Pfuzz.hunt ~jobs:1 ~generator:name ?gen_of_seed ~root_seed:3
        ~budget:(Pool.Time_ms (2. *. !budget_ms))
        () )
  in
  let hunts =
    [
      hunt "NNSmith";
      hunt "GraphFuzzer" ~gen_of_seed:(fun seed ->
          D.Generators.graphfuzzer ~seed ());
      hunt "LEMON" ~gen_of_seed:(fun seed -> D.Generators.lemon ~seed ());
    ]
  in
  let triggered_table (r : D.Pfuzz.result) =
    let t = Hashtbl.create 32 in
    List.iter (fun (id, n) -> Hashtbl.replace t id n) r.r_triggered;
    t
  in
  let total_seeded = List.length Faults.catalogue in
  Printf.printf "seeded bugs: %d (paper found 72 real ones)\n" total_seeded;
  List.iter
    (fun (name, (r : D.Pfuzz.result)) ->
      Printf.printf "\n%s: tests=%d, triggered %d/%d seeded bugs\n" name
        r.r_stats.st_tests (List.length r.r_triggered) total_seeded;
      Printf.printf "%-10s %-15s %-11s %-13s %-6s %-9s\n" "system" "Transformation"
        "Conversion" "Unclassified" "Crash" "Semantic";
      List.iter
        (fun (sys, t, c, u, cr, se) ->
          Printf.printf "%-10s %-15d %-11d %-13d %-6d %-9d\n" sys t c u cr se)
        (D.Bughunt.distribution (triggered_table r));
      let uniq_by prefix =
        List.fold_left
          (fun acc (m, _) ->
            if String.length m > 1 && String.sub m 1 (min 4 (String.length m - 1)) |> fun p ->
               String.length prefix <= String.length p && String.sub p 0 (String.length prefix) = prefix
            then acc + 1
            else acc)
          0 r.r_crashes
      in
      Printf.printf "unique crash messages: OxRT-prefixed=%d Lotus-prefixed=%d (total %d)\n"
        (uniq_by "oxrt") (uniq_by "lotu")
        (List.length r.r_crashes))
    hunts;
  (* the paper's headline analysis: bugs out of reach for the baselines *)
  let triggered name =
    List.map fst (List.assoc name hunts).D.Pfuzz.r_triggered
  in
  let nn = triggered "NNSmith"
  and gf = triggered "GraphFuzzer"
  and le = triggered "LEMON" in
  let only_nn =
    List.filter (fun b -> not (List.mem b gf) && not (List.mem b le)) nn
  in
  Printf.printf
    "\nNNSmith triggered %d; GraphFuzzer %d; LEMON %d; NNSmith-only: %d \
     (paper: 49 of 72 out of baseline reach)\n"
    (List.length nn) (List.length gf) (List.length le) (List.length only_nn);
  List.iter (fun b -> Printf.printf "  NNSmith-only: %s\n" b) (List.sort compare only_nn)

(* ------------------------------------------------------------------ *)
(* stats quoted in the paper's prose                                   *)

let stat_nan () =
  section "Stat: NaN/Inf rate of 20-node models under random init (paper: 56.8%)";
  Faults.deactivate_all ();
  let rng = Random.State.make [| 99 |] in
  let bad = ref 0 and total = ref 0 in
  for seed = 1 to 100 do
    match Gen.generate { Config.default with seed = (seed * 31) + 7; max_nodes = 20 } with
    | exception Gen.Gen_failure _ -> ()
    | g ->
        incr total;
        let b = Runner.random_binding rng g in
        if Search.binding_is_bad g b then incr bad
  done;
  Printf.printf "NaN/Inf in %d/%d models = %.1f%%\n" !bad !total (pct !bad !total)

let stat_gen () =
  section "Stat: generation vs search cost (paper: 83ms gen, 3.5ms search, 98% success)";
  let rng = Random.State.make [| 5 |] in
  let gen_ms = ref 0. and search_ms = ref 0. and succ = ref 0 and n = ref 0 in
  for seed = 1 to 50 do
    match Gen.generate_with_stats { Config.default with seed = seed * 3; max_nodes = 10 } with
    | exception Gen.Gen_failure _ -> ()
    | g, stats ->
        incr n;
        gen_ms := !gen_ms +. stats.gen_ms;
        let o = Search.search ~method_:Search.Gradient rng g in
        search_ms := !search_ms +. o.elapsed_ms;
        if o.binding <> None then incr succ
  done;
  Printf.printf
    "10-node models: avg generation %.1fms, avg search %.2fms (%.1f%% of \
     gen), success %.1f%%\n"
    (!gen_ms /. float_of_int !n)
    (!search_ms /. float_of_int !n)
    (100. *. !search_ms /. Float.max 1e-9 !gen_ms)
    (pct !succ !n)


(* ------------------------------------------------------------------ *)
(* Ablations of design choices called out in DESIGN.md                 *)

(* Insertion-direction ablation: Algorithm 1 mixes forward and backward
   insertion 50/50.  Forward-only cannot seed multi-input subgraphs below
   existing placeholders; backward-only grows trees from outputs.  We
   measure operator-instance diversity and coverage for each policy. *)
let abl_insert () =
  section "Ablation: forward vs backward insertion (Algorithm 1)";
  Faults.deactivate_all ();
  List.iter
    (fun (name, fp) ->
      let tests, insts =
        op_instances ~budget_ms:(!budget_ms /. 2.)
          (D.Generators.nnsmith ~seed:5 ~forward_prob:fp ~name ())
      in
      let cov =
        coverage_campaign ~budget_ms:(!budget_ms /. 2.) ~system:D.Systems.oxrt
          ~root_seed:5 name (fun seed ->
            D.Generators.nnsmith ~seed ~forward_prob:fp ~name ())
      in
      Printf.printf
        "%-16s tests=%-5d unique-op-instances=%-5d oxrt-coverage=%d
%!" name
        tests insts (Cov.count cov.r_coverage))
    [
      ("forward-only", 1.0);
      ("backward-only", 0.0);
      ("mixed (paper)", 0.5);
    ]

(* Solver-budget ablation: the search-step cap trades generation success
   and speed; Unknown results abort insertions (safe but wasteful). *)
let abl_solver () =
  section "Ablation: constraint-solver step budget";
  List.iter
    (fun steps ->
      let ok = ref 0 and total_ms = ref 0. and n = ref 0 in
      for seed = 1 to 30 do
        incr n;
        match
          Gen.generate_with_stats
            {
              Config.default with
              seed = seed * 59;
              max_nodes = 10;
              solver_max_steps = steps;
            }
        with
        | exception Gen.Gen_failure _ -> ()
        | _, stats ->
            incr ok;
            total_ms := !total_ms +. stats.gen_ms
      done;
      Printf.printf
        "max_steps=%-6d success=%2d/%d avg-generation=%6.1fms
%!" steps !ok
        !n
        (!total_ms /. float_of_int (max 1 !ok)))
    [ 50; 200; 1000; 2000; 10000 ]

(* ------------------------------------------------------------------ *)
(* The counter gate.

   Each gated experiment owns one fixed-seed round whose work counters
   (solver checks / component solves / search steps, compiled kernel
   runs / dirty-set recomputes / plan compiles, generator tallies) and
   allocation words are bit-stable run to run.  Running the experiment
   captures its round with Nnsmith_bench.Metrics and appends a schema-2
   row (commit + parent, workload key, digest, counters and an advisory
   tests/sec) to bench/history.jsonl; bench/latest.json keeps the
   current commit's rows and the dashboard charts the history.  `bench
   regress` demands exact counter equality against the last committed
   row (±2% on allocation words); `bench check-determinism` runs every
   round twice in-process and fails on any counter or digest mismatch,
   so the gate cannot silently go flaky. *)

module Metrics = Nnsmith_bench.Metrics
module History = Nnsmith_bench.History

let bench_dir = "bench"
let history_file = Filename.concat bench_dir "history.jsonl"

(* Reset every piece of cross-test mutable state a counter round can see:
   a round must be a pure function of (code, seed, workload size). *)
let reset_workspace () =
  Faults.deactivate_all ();
  Nnsmith_smt.Solver.cache_clear ();
  Nnsmith_exec.Plan.cohort_clear ();
  (* after the memos: hc_clear restarts the fresh-variable counter, so
     variable ids, and with them allocation, realign run to run *)
  Nnsmith_smt.Expr.hc_clear ()

let counter_seed = 20230325
let campaign_n () = max 40 (int_of_float (!budget_ms /. 20.))

(* Mixing combiner, not xor: a graph generated twice, or two searches with
   swapped outcomes, must not cancel out of a digest. *)
let mix digest h = ((digest * 31) + h) land max_int

(* One generation pass over [n] index-pure seeds.  With [hash] set, each
   graph is folded into [digest]; the captured rounds leave it unset, so
   their counters and allocation see generation only. *)
let gen_pass ~hash ~nodes ~n digest =
  let digest = ref digest in
  for i = 0 to n - 1 do
    let tseed = Nnsmith_parallel.Splitmix.derive ~root:counter_seed ~index:i in
    match
      Gen.generate { Config.default with seed = tseed; max_nodes = nodes }
    with
    | exception Gen.Gen_failure _ -> ()
    | g ->
        if hash then
          digest := mix !digest (Hashtbl.hash (Graph.to_string g))
  done;
  !digest

(* The pre-screening round uses deeper graphs than the solver round: more
   candidate probes per test relative to the shared generation cost,
   which is the regime the screen targets. *)
let prescreen_nodes = 20

(* Fixed model set for the gradient-search round: models whose initial
   random binding produces NaN/Inf, i.e. the searches that iterate. *)
let gradsearch_graphs =
  lazy
    (let n = max 12 (int_of_float (!budget_ms /. 100.)) in
     let acc = ref [] and found = ref 0 and i = ref 0 in
     while !found < n && !i < n * 50 do
       let tseed =
         Nnsmith_parallel.Splitmix.derive ~root:counter_seed ~index:!i
       in
       incr i;
       match
         Gen.generate { Config.default with seed = tseed; max_nodes = 12 }
       with
       | exception Gen.Gen_failure _ -> ()
       | g ->
           let rng = Random.State.make [| tseed |] in
           if Search.binding_is_bad g (Runner.random_binding rng g) then begin
             acc := (tseed, g) :: !acc;
             incr found
           end
     done;
     List.rev !acc)

let gradsearch_round ~hash =
  List.fold_left
    (fun digest (tseed, g) ->
      let rng = Random.State.make [| tseed; 1 |] in
      let o = Search.search ~method_:Search.Gradient rng g in
      if not hash then digest
      else
        mix digest
          (match o.Search.binding with
          | None -> Hashtbl.hash (o.Search.iterations, o.Search.restarts)
          | Some b ->
              Hashtbl.hash
                ( o.Search.iterations,
                  o.Search.restarts,
                  Nnsmith_tensor.Tser.encode_binding b )))
    0
    (Lazy.force gradsearch_graphs)

type counter_exp = {
  ce_name : string;
  ce_tests : unit -> int;  (* tests (or searches) per round *)
  ce_workload : unit -> string;  (* comparability key for history rows *)
  ce_prepare : unit -> unit;  (* after reset, outside the capture *)
  ce_round : hash:bool -> int;  (* one round; its digest when [hash] *)
}

let counter_experiments =
  [
    (* campaign + replay: generation solves every constraint set twice.
       The id dates from the solver's removed result caches and is kept
       so history rows stay comparable. *)
    {
      ce_name = "solver_cache";
      ce_tests = (fun () -> 2 * campaign_n ());
      ce_workload = (fun () -> Printf.sprintf "tests=%d" (2 * campaign_n ()));
      ce_prepare = ignore;
      ce_round =
        (fun ~hash ->
          let n = campaign_n () in
          gen_pass ~hash ~nodes:10 ~n (gen_pass ~hash ~nodes:10 ~n 0));
    };
    (* one campaign of deeper graphs, with the interval screen on *)
    {
      ce_name = "prescreen";
      ce_tests = campaign_n;
      ce_workload =
        (fun () ->
          Printf.sprintf "tests=%d nodes=%d" (campaign_n ()) prescreen_nodes);
      ce_prepare = ignore;
      ce_round =
        (fun ~hash ->
          gen_pass ~hash ~nodes:prescreen_nodes ~n:(campaign_n ()) 0);
    };
    (* full gradient searches over the fixed bad-init model set *)
    {
      ce_name = "gradsearch";
      ce_tests = (fun () -> List.length (Lazy.force gradsearch_graphs));
      ce_workload =
        (fun () ->
          Printf.sprintf "searches=%d"
            (List.length (Lazy.force gradsearch_graphs)));
      ce_prepare = (fun () -> ignore (Lazy.force gradsearch_graphs));
      ce_round = gradsearch_round;
    };
  ]

(* The uncaptured hashing round, from a reset workspace: it yields the
   row's digest and warms process-lifetime state (the operator
   registry) before a capture. *)
let digest_round ce =
  reset_workspace ();
  ce.ce_prepare ();
  ce.ce_round ~hash:true

(* The captured round, from a reset workspace, with its wall time for the
   advisory tests/sec column. *)
let capture_round ce =
  reset_workspace ();
  ce.ce_prepare ();
  let t0 = Tel.now_ms () in
  let (), c = Metrics.capture (fun () -> ignore (ce.ce_round ~hash:false)) in
  (c, Tel.now_ms () -. t0)

(* Running a counter experiment: digest, capture, one history row. *)
let record_counter_row ce () =
  section ("Counter round: " ^ ce.ce_name);
  let digest = digest_round ce in
  let counters, ms = capture_round ce in
  let tests = ce.ce_tests () and workload = ce.ce_workload () in
  let tests_per_sec = float_of_int tests /. Float.max 1e-6 (ms /. 1000.) in
  let row =
    History.make_row ~counters ~workload ~experiment:ce.ce_name
      ~tests_per_sec ~digest:(string_of_int digest) ()
  in
  History.append ~dir:bench_dir row;
  Printf.printf
    "%s: work-counters=%d alloc-words=%.0f digest=%d\n\
     %d tests in %.0f ms = %.1f tests/s (advisory)\n\
     recorded %s @ %s in %s\n"
    workload
    (List.length counters.Metrics.mc_work)
    (Metrics.alloc_words counters)
    digest tests ms tests_per_sec ce.ce_name row.History.hr_commit
    history_file

(* `bench check-determinism`: every gated round twice in-process, after
   the digest round has warmed the process up, so run 1 and run 2 face
   identical workspaces.  Any work-counter mismatch, allocation drift
   beyond a hair above zero, or a second digest round that disagrees
   with the first means the gate's inputs are not deterministic, and CI
   must fail loudly rather than gate on noise. *)
let check_determinism () =
  section "bench check-determinism: counter rounds must be bit-stable";
  let failed = ref 0 in
  List.iter
    (fun ce ->
      let d1 = digest_round ce in
      let c1, _ = capture_round ce in
      let c2, _ = capture_round ce in
      let d2 = digest_round ce in
      let diffs = Metrics.work_diff c1 c2 in
      let a1 = Metrics.alloc_words c1 and a2 = Metrics.alloc_words c2 in
      let drift = Float.abs (a2 -. a1) /. Float.max 1. a1 in
      let ok = diffs = [] && drift <= 1e-4 && d1 = d2 in
      if not ok then incr failed;
      Printf.printf
        "%-14s %-17s work-counters=%-3d alloc-words=%.0f drift=%.5f%% %s\n"
        ce.ce_name (ce.ce_workload ())
        (List.length c1.Metrics.mc_work)
        a1 (100. *. drift)
        (if ok then "ok" else "NOT DETERMINISTIC");
      List.iter
        (fun (k, v1, v2) ->
          Printf.printf "  counter %s: run1=%d run2=%d\n" k v1 v2)
        diffs;
      if drift > 1e-4 then
        Printf.printf "  alloc words: run1=%.0f run2=%.0f\n" a1 a2;
      if d1 <> d2 then Printf.printf "  digest: run1=%d run2=%d\n" d1 d2)
    counter_experiments;
  if !failed > 0 then begin
    Printf.printf
      "check-determinism: %d experiment(s) produced unstable counters\n"
      !failed;
    exit 1
  end
  else Printf.printf "check-determinism: all counter rounds bit-stable\n"

(* `bench regress`: each experiment's newest history row against the
   last committed comparable row.  Work counters must match exactly and
   allocation words may grow by at most History.alloc_tolerance;
   tests/sec is an advisory column only. *)
let regress () =
  section "bench regress: deterministic counter gate";
  let { History.rr_rows; rr_bad_lines; rr_torn_tail } =
    History.read history_file
  in
  if rr_bad_lines > 0 then
    Printf.printf "warning: %s: skipped %d unparseable line(s)\n" history_file
      rr_bad_lines;
  if rr_torn_tail then
    Printf.printf
      "warning: %s: final line is torn (writer interrupted); ignored\n"
      history_file;
  if rr_rows = [] then
    print_endline "bench regress: no history rows, nothing to gate"
  else begin
    let known = List.map (fun ce -> ce.ce_name) counter_experiments in
    let failed = ref 0 in
    List.iter
      (fun v ->
        let status =
          match v.History.v_status with
          | `Ok -> "ok"
          | `Regressed fs ->
              incr failed;
              Printf.sprintf "REGRESSED (%d failure(s))" (List.length fs)
          | `Skipped reason -> "skipped: " ^ reason
        in
        Printf.printf "%-14s %-17s %s\n" v.History.v_experiment
          (Option.value ~default:"-" v.History.v_workload)
          status;
        (match v.History.v_status with
        | `Regressed fs ->
            List.iter (fun f -> Printf.printf "  FAIL %s\n" f) fs
        | _ -> ());
        List.iter (fun n -> Printf.printf "  note %s\n" n) v.History.v_notes)
      (History.regress ~known rr_rows);
    if !failed > 0 then begin
      Printf.printf
        "bench regress: %d experiment(s) regressed.  If the change is \
         intentional, re-run the bench and commit the new %s row to \
         re-baseline.\n"
        !failed history_file;
      exit 1
    end
    else
      print_endline
        "bench regress: counters match the committed baseline"
  end

let experiments =
  [
    ("fig4", fig456);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("tab1", tab1);
    ("tab2", tab2);
    ("tab3", tab3);
    ("abl_insert", abl_insert);
    ("abl_solver", abl_solver);
    ("stat_nan", stat_nan);
    ("stat_gen", stat_gen);
  ]
  @ List.map (fun ce -> (ce.ce_name, record_counter_row ce)) counter_experiments

let () =
  (* verbs, not experiments: `regress` gates on the committed history,
     `check-determinism` proves the gate's metric is bit-stable.  Both
     honour --budget so CI compares rows at the workload it records. *)
  let verb =
    if Array.length Sys.argv > 1
       && (Sys.argv.(1) = "regress" || Sys.argv.(1) = "check-determinism")
    then Some Sys.argv.(1)
    else None
  in
  let rec parse = function
    | "--only" :: id :: rest ->
        only := Some id;
        parse rest
    | "--budget" :: ms :: rest ->
        budget_ms := float_of_string ms;
        parse rest
    | "--telemetry" :: file :: rest ->
        telemetry_out := Some file;
        parse rest
    | _ :: rest -> parse rest
    | [] -> ()
  in
  parse (Array.to_list Sys.argv);
  (match verb with
  | Some "regress" ->
      regress ();
      exit 0
  | Some "check-determinism" ->
      check_determinism ();
      exit 0
  | _ -> ());
  let wanted =
    match !only with
    | None -> experiments
    | Some id -> (
        (* fig5/fig6 are produced by the fig4 runner *)
        let id = match id with "fig5" | "fig6" -> "fig4" | x -> x in
        match List.assoc_opt id experiments with
        | Some f -> [ (id, f) ]
        | None ->
            Printf.eprintf "unknown experiment %s\n" id;
            exit 1)
  in
  List.iter (fun (_, f) -> f ()) wanted;
  (* same JSONL schema as `nnsmith fuzz --telemetry`, so perf trajectories
     across bench runs are diffable *)
  (match !telemetry_out with
  | Some file ->
      Tel.append_jsonl file (Tel.snapshot ());
      Printf.printf "\ntelemetry appended to %s\n" file
  | None -> ());
  Printf.printf "\nAll requested experiments completed.\n"
