(* Tests for the differential-testing harness, exporter, campaigns and the
   seeded-bug study machinery (lib/difftest). *)

module Op = Nnsmith_ir.Op
module Graph = Nnsmith_ir.Graph
module Conc = Nnsmith_ir.Ttype.Conc
module Dtype = Nnsmith_tensor.Dtype
module Nd = Nnsmith_tensor.Nd
module Runner = Nnsmith_ops.Runner
module Faults = Nnsmith_faults.Faults
module D = Nnsmith_difftest
module B = Nnsmith_baselines.Builder
module Cov = Nnsmith_coverage.Coverage
module Pool = Nnsmith_parallel.Pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let no_faults f = Faults.with_bugs [] f
let with_bug b f = Faults.with_bugs [ b ] f
let rng () = Random.State.make [| 31337 |]

let relu_graph () =
  let g = Graph.empty in
  let g, x = B.input g Dtype.F32 [ 2; 2 ] in
  let g, _ = B.op g (Op.Unary Op.Relu) [ x ] in
  (g, x)

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)

let test_harness_pass () =
  no_faults (fun () ->
      let g, _ = relu_graph () in
      let b = Runner.random_binding (rng ()) g in
      List.iter
        (fun sys ->
          match D.Harness.test sys g b with
          | D.Harness.Pass -> ()
          | v ->
              Alcotest.failf "%s: expected Pass, got %s" sys.D.Systems.s_name
                (match v with
                | D.Harness.Crash m -> "Crash " ^ m
                | Semantic _ -> "Semantic"
                | Skipped m -> "Skipped " ^ m
                | Pass -> "Pass"))
        D.Systems.all)

let test_harness_skips_nan () =
  no_faults (fun () ->
      let g = Graph.empty in
      let g, x = B.input g Dtype.F32 [ 2 ] in
      let g, _ = B.op g (Op.Unary Op.Sqrt) [ x ] in
      let b = [ (x, Nd.of_floats Dtype.F32 [| 2 |] [| -1.; -2. |]) ] in
      match D.Harness.test D.Systems.oxrt g b with
      | D.Harness.Skipped _ -> ()
      | _ -> Alcotest.fail "NaN reference must be skipped, not compared")

let test_harness_detects_crash () =
  with_bug "lotus.import_matmul_vec" (fun () ->
      let g = Graph.empty in
      let g, a = B.input g Dtype.F32 [ 3 ] in
      let g, m = B.input g Dtype.F32 [ 3; 2 ] in
      let g, _ = B.op g Op.Mat_mul [ a; m ] in
      let b = Runner.random_binding (rng ()) g in
      match D.Harness.test D.Systems.lotus g b with
      | D.Harness.Crash msg ->
          check "attributed" true
            (D.Harness.bug_id_of_message msg = Some "lotus.import_matmul_vec")
      | _ -> Alcotest.fail "expected a crash verdict")

let avgpool_graph () =
  let g = Graph.empty in
  let g, x = B.input g Dtype.F32 [ 1; 1; 2; 2 ] in
  let g, _ =
    B.op g
      (Op.Pool2d (Op.P_avg, { p_kh = 2; p_kw = 2; p_stride = 2; p_padding = 1 }))
      [ x ]
  in
  (g, x)

let test_harness_semantic_localisation () =
  with_bug "oxrt.avgpool_include_pad" (fun () ->
      let g, x = avgpool_graph () in
      let b = [ (x, Nd.full_f Dtype.F32 [| 1; 1; 2; 2 |] 4.) ] in
      match D.Harness.test D.Systems.oxrt g b with
      | D.Harness.Semantic { sem_kind; rel_err } ->
          (* the defect lives in the kernel, present at O0 too -> Frontend *)
          check "kind" true (sem_kind = `Frontend);
          check "error measured" true (rel_err > 0.)
      | _ -> Alcotest.fail "expected a semantic verdict")

(* Relu -> Clip(-1, 1) at f64 on all -3s: "oxrt.fuse_relu_clip_f64" drops
   the fused lower bound. *)
let relu_clip_f64_case () =
  let g = Graph.empty in
  let g, x = B.input g Dtype.F64 [ 4 ] in
  let g, r = B.op g (Op.Unary Op.Relu) [ x ] in
  let g, _ = B.op g (Op.Clip { c_lo = -1.; c_hi = 1. }) [ r ] in
  (g, [ (x, Nd.full_f Dtype.F64 [| 4 |] (-3.)) ])

let test_harness_opt_localisation () =
  with_bug "oxrt.fuse_relu_clip_f64" (fun () ->
      let g, b = relu_clip_f64_case () in
      match D.Harness.test D.Systems.oxrt g b with
      | D.Harness.Semantic { sem_kind; _ } ->
          (* fusion happens only at O2 -> the optimizer is to blame *)
          check "kind" true (sem_kind = `Optimization)
      | _ -> Alcotest.fail "expected a semantic verdict")

(* No compiler under test writes into its inputs.  The oracle's reference
   is computed on the plan that holds the search binding's very tensors and
   is reused while they stay physically the same, so a system that mutated
   one would make that reference stale.  Every system at both levels, with
   the defects off and all on, must leave each binding tensor with the bits
   of a copy taken beforehand (a crash included). *)
let test_systems_leave_inputs_intact () =
  let models =
    List.filter_map
      (fun seed ->
        match
          Nnsmith_core.Gen.generate
            { Nnsmith_core.Config.default with seed; max_nodes = 10 }
        with
        | exception Nnsmith_core.Gen.Gen_failure _ -> None
        | g -> Some (seed, g, D.Inputs.find_binding (Random.State.make [| seed |]) g))
      (List.init 20 (fun i -> i + 1))
  in
  check "enough models" true (List.length models >= 10);
  List.iter
    (fun (label, bugs) ->
      Faults.with_bugs bugs (fun () ->
          List.iter
            (fun (seed, g, binding) ->
              let exported, _ = D.Exporter.export g in
              List.iter
                (fun (sys : D.Systems.t) ->
                  List.iter
                    (fun (level, opt) ->
                      let before = List.map (fun (id, v) -> (id, Nd.copy v)) binding in
                      (try ignore (sys.compile_and_run opt exported binding)
                       with _ -> ());
                      List.iter2
                        (fun (id, v) (_, v0) ->
                          if not (Nd.equal v v0) then
                            Alcotest.failf "%s: %s %s wrote into leaf %d of model seed %d"
                              label sys.s_name level id seed)
                        binding before)
                    [ ("O0", D.Systems.O0); ("O2", D.Systems.O2) ])
                D.Systems.all)
            models))
    [
      ("defects off", []);
      ("all defects on", List.map (fun (b : Faults.bug) -> b.b_id) Faults.catalogue);
    ]

let test_bug_id_parsing () =
  check "valid id" true
    (D.Harness.bug_id_of_message "[oxrt.cse_ignores_attrs] blah"
    = Some "oxrt.cse_ignores_attrs");
  check "generic rejection not a bug" true
    (D.Harness.bug_id_of_message "[oxrt.import] invalid model" = None);
  check "no brackets" true (D.Harness.bug_id_of_message "plain" = None)

(* ------------------------------------------------------------------ *)
(* Exporter                                                            *)

let test_exporter_clean_without_bugs () =
  no_faults (fun () ->
      let g, _ = relu_graph () in
      let g', fired = D.Exporter.export g in
      check "unchanged" true (Graph.to_string g = Graph.to_string g');
      check_int "nothing fired" 0 (List.length fired))

let test_exporter_log2_scalar () =
  with_bug "export.log2_scalar_rank1" (fun () ->
      let g = Graph.empty in
      let g, x = B.input g Dtype.F32 [] in
      let g, l = B.op g (Op.Unary Op.Log2) [ x ] in
      let g', fired = D.Exporter.export g in
      check "fired" true (List.mem "export.log2_scalar_rank1" fired);
      check "scalar became rank-1" true
        (Conc.dims (Graph.find g' l).Graph.out_type = [ 1 ]);
      (* the paper's by-product: the ill-formed model is rejected downstream *)
      check "downstream rejects" true
        (try
           ignore (Nnsmith_ortlike.Compiler.compile g');
           false
         with Faults.Compiler_bug _ -> true))

let test_exporter_clip_i32_chain () =
  (* exporter mis-types Clip at i32; standard compilers reject, the TRT
     profile mis-compiles it (the paper's TensorRT data-type bug) *)
  Faults.with_bugs [ "export.clip_i32_silent"; "trt.clip_i32_attrs" ]
    (fun () ->
      let g = Graph.empty in
      let g, x = B.input g Dtype.F32 [ 4 ] in
      let g, _ = B.op g (Op.Clip { c_lo = -2.; c_hi = 2. }) [ x ] in
      let exported, fired = D.Exporter.export g in
      check "export fired" true (List.mem "export.clip_i32_silent" fired);
      let b = [ (x, Nd.of_floats Dtype.F32 [| 4 |] [| -5.; 0.; 1.; 5. |]) ] in
      (match D.Harness.test ~exported D.Systems.oxrt g b with
      | D.Harness.Crash _ -> ()
      | _ -> Alcotest.fail "standard runtime must reject");
      match D.Harness.test ~exported D.Systems.trt g b with
      | D.Harness.Semantic _ | D.Harness.Crash _ -> ()
      | _ -> Alcotest.fail "TRT must mis-compile or crash")

(* ------------------------------------------------------------------ *)
(* Operator-support probing                                            *)

let test_support_probing () =
  no_faults (fun () ->
      (* every stock template is supported by every simulated system *)
      let unsupported = D.Support.unsupported_names D.Systems.oxrt in
      check
        (Printf.sprintf "oxrt supports all (%s missing)"
           (String.concat "," unsupported))
        true (unsupported = []);
      check "lotus supports all" true
        (D.Support.unsupported_names D.Systems.lotus = []))

let test_support_detects_rejection () =
  (* a system that rejects integer Clip models must drop the template if
     Clip were int-typed; our Clip is float-only, so instead check that a
     template probe actually compiles a single-op model *)
  no_faults (fun () ->
      let tpl = Option.get (Nnsmith_ops.Registry.find "Conv2d") in
      check "conv2d probes fine" true
        (D.Support.template_supported D.Systems.lotus tpl))

(* ------------------------------------------------------------------ *)
(* Opinst / campaigns / bughunt                                        *)

let test_opinst_counting () =
  let t = D.Opinst.create () in
  let g, _ = relu_graph () in
  let fresh = D.Opinst.add t g in
  check_int "one op instance" 1 fresh;
  check_int "no double count" 0 (D.Opinst.add t g);
  check_int "total" 1 (D.Opinst.count t)

let test_opinst_distinguishes_attrs () =
  let t = D.Opinst.create () in
  let mk stop =
    let g = Graph.empty in
    let g, x = B.input g Dtype.F32 [ 6 ] in
    let g, _ = B.op g (Op.Slice { s_axis = 0; s_start = 0; s_stop = stop }) [ x ] in
    g
  in
  ignore (D.Opinst.add t (mk 2));
  ignore (D.Opinst.add t (mk 3));
  check_int "attrs distinguish instances" 2 (D.Opinst.count t)

(* Campaigns run on Pfuzz with [Tests n] budgets: what they compute does
   not depend on the machine's load. *)
let nnsmith_coverage ~root_seed ~tests =
  D.Pfuzz.coverage ~jobs:1 ~generator:"NNSmith" ~system:D.Systems.oxrt
    ~root_seed ~budget:(Pool.Tests tests)
    ~gen_of_seed:(fun seed -> D.Generators.nnsmith ~seed ())
    ()

let test_coverage_campaign_smoke () =
  no_faults (fun () ->
      let r = nnsmith_coverage ~root_seed:77 ~tests:40 in
      check_int "ran the budget" 40 r.r_stats.st_tests;
      check "covered something" true (Cov.count r.r_coverage > 0);
      match r.r_curves with
      | [ curve ] ->
          check_int "one point per test" 40 (List.length curve);
          check "curve monotone" true
            (let rec mono = function
               | (a : D.Pfuzz.point) :: (b :: _ as rest) ->
                   b.p_tests = a.p_tests + 1
                   && a.p_total <= b.p_total
                   && a.p_pass <= b.p_pass
                   && mono rest
               | _ -> true
             in
             mono curve)
      | _ -> Alcotest.fail "jobs=1 campaign must return one curve")

let test_campaign_telemetry_spans () =
  no_faults (fun () ->
      let module Tel = Nnsmith_telemetry.Telemetry in
      Tel.set_enabled true;
      Tel.reset ();
      let r = nnsmith_coverage ~root_seed:99 ~tests:40 in
      check_int "ran the budget" 40 r.r_stats.st_tests;
      let s = Tel.snapshot () in
      let group_total prefix =
        List.fold_left
          (fun acc (k, (sv : Tel.span_view)) ->
            if
              String.length k >= String.length prefix
              && String.sub k 0 (String.length prefix) = prefix
            then acc +. sv.sv_total_ms
            else acc)
          0. s.spans
      in
      List.iter
        (fun p ->
          check (p ^ "* spans accumulated time") true (group_total p > 0.))
        [ "gen/"; "smt/"; "exec/" ];
      check "solver counters recorded" true (Tel.counter_value "smt/check" > 0);
      (* reset zeroes the whole registry *)
      Tel.reset ();
      let s = Tel.snapshot () in
      check "spans zeroed by reset" true (s.spans = []);
      check_int "counters zeroed by reset" 0 (Tel.counter_value "smt/check"))

let test_tzer_campaign_smoke () =
  no_faults (fun () ->
      Cov.reset ();
      let st = Nnsmith_baselines.Tzer.create ~seed:3 () in
      for _ = 1 to 200 do
        Nnsmith_baselines.Tzer.step st
      done;
      check "low-level coverage" true (Cov.count (Cov.snapshot ()) > 0))

let test_bughunt_finds_seeded_bugs () =
  let r = D.Pfuzz.hunt ~jobs:1 ~root_seed:55 ~budget:(Pool.Tests 100) () in
  check_int "ran the budget" 100 r.r_stats.st_tests;
  let triggered = Hashtbl.create 32 in
  List.iter (fun (id, n) -> Hashtbl.replace triggered id n) r.r_triggered;
  check
    (Printf.sprintf "triggered several bugs (%d)" (Hashtbl.length triggered))
    true
    (Hashtbl.length triggered >= 3);
  (* distribution table is consistent with the trigger set *)
  let total_rows =
    List.fold_left
      (fun acc (_, t, c, u, _, _) -> acc + t + c + u)
      0
      (D.Bughunt.distribution triggered)
  in
  check_int "distribution covers triggered" (Hashtbl.length triggered) total_rows

let test_lemon_cannot_trigger_shape_bugs () =
  (* the paper's headline: LEMON's restrictions put most bugs out of reach *)
  let r =
    D.Pfuzz.hunt ~jobs:1 ~generator:"LEMON"
      ~gen_of_seed:(fun seed -> D.Generators.lemon ~seed ())
      ~root_seed:55 ~budget:(Pool.Tests 41) ()
  in
  check_int "ran the budget" 41 r.r_stats.st_tests;
  let shape_dependent =
    [
      "lotus.import_where_broadcast";
      "lotus.import_expand_rank0";
      "oxrt.where_const_cond_fold";
      "lotus.import_pad_negative";
      "oxrt.fuse_pad_conv_negative";
    ]
  in
  List.iter
    (fun b ->
      check (b ^ " unreachable for LEMON") false (List.mem_assoc b r.r_triggered))
    shape_dependent

(* Attribution oracle: the exhaustive loop, every semantic candidate of
   the system and of the exporter re-run with only itself on.  Returns the
   triggered table as sorted pairs. *)
let exhaustive_attribution (system : D.Systems.t) g binding =
  List.filter_map
    (fun (b : Faults.bug) ->
      if
        b.effect = Faults.Semantic
        && (b.system = system.s_name || b.system = "Exporter")
        && Faults.with_bugs [ b.b_id ] (fun () ->
               let exported, _ = D.Exporter.export g in
               match D.Harness.test ~exported system g binding with
               | D.Harness.Semantic _ -> true
               | Pass | Crash _ | Skipped _ -> false
               | exception _ -> false)
      then Some (b.b_id, 1)
      else None)
    Faults.catalogue
  |> List.sort compare

let check_attribution what system g binding =
  let triggered = Hashtbl.create 8 in
  D.Bughunt.attribute_semantic system g binding triggered;
  Alcotest.(check (list (pair string int)))
    what
    (exhaustive_attribution system g binding)
    (List.sort compare (List.of_seq (Hashtbl.to_seq triggered)))

(* Skipping the candidates whose guard the fault-free run never consults
   gives the exhaustive loop's table: on two hand-built OxRT models, one
   whose first candidate acts (so the first run is not the fault-free run)
   and one whose defect is a later candidate; on every semantic failure of
   the 100-test hunt at root 55; and on three models whose fault-free Lotus
   compile already mismatches, so that the skipped candidates are credited
   with its Semantic verdict. *)
let test_attribution_exact () =
  let module Tel = Nnsmith_telemetry.Telemetry in
  let was_enabled = Tel.is_enabled () in
  Tel.set_enabled true;
  Fun.protect ~finally:(fun () -> Tel.set_enabled was_enabled) @@ fun () ->
  let runs0 = Tel.counter_value "hunt/isolation_runs"
  and skipped0 = Tel.counter_value "hunt/isolation_skipped" in
  let g, b = relu_clip_f64_case () in
  check_attribution "Relu-Clip f64" D.Systems.oxrt g b;
  let g, x = avgpool_graph () in
  check_attribution "include-pad AveragePool" D.Systems.oxrt g
    [ (x, Nd.full_f Dtype.F32 [| 1; 1; 2; 2 |] 4.) ];
  let all_ids = List.map (fun (b : Faults.bug) -> b.b_id) Faults.catalogue in
  let semantic =
    Faults.with_bugs all_ids (fun () ->
        List.concat_map
          (fun i ->
            let o =
              D.Pfuzz.run_one ~systems:D.Systems.all
                ~seed:(Nnsmith_parallel.Splitmix.derive ~root:55 ~index:i)
                ()
            in
            List.filter
              (fun (f : D.Pfuzz.failure) ->
                match f.f_verdict with D.Harness.Semantic _ -> true | _ -> false)
              o.o_failures)
          (List.init 100 Fun.id))
  in
  check "the hunt has semantic failures" true (List.length semantic >= 3);
  List.iter
    (fun (f : D.Pfuzz.failure) ->
      check_attribution
        (Printf.sprintf "seed %d on %s" f.f_seed f.f_system.s_name)
        f.f_system f.f_graph f.f_binding)
    semantic;
  List.iter
    (fun seed ->
      let g =
        Nnsmith_core.Gen.generate
          { Nnsmith_core.Config.default with seed; max_nodes = 8 }
      in
      let binding =
        D.Inputs.find_binding (Random.State.make [| seed |]) g
      in
      (match no_faults (fun () -> D.Harness.test D.Systems.lotus g binding) with
      | D.Harness.Semantic _ -> ()
      | _ ->
          Alcotest.failf
            "model seed %d: the fault-free Lotus compile no longer \
             mismatches; pick a model on which it does"
            seed);
      check_attribution (Printf.sprintf "model seed %d" seed) D.Systems.lotus g
        binding)
    [ 2250; 10527; 76227 ];
  check "some candidates were re-run" true
    (Tel.counter_value "hunt/isolation_runs" > runs0);
  check "some candidates took the fault-free verdict" true
    (Tel.counter_value "hunt/isolation_skipped" > skipped0)

(* The recorder sees exactly the guards a scope consults: a compile that
   reaches no AveragePool never consults that defect's guard, and a scope
   that raises still hands its ids to the enclosing scope, which records
   again once it is back in charge. *)
let test_record_consulted () =
  let g, _ = relu_graph () in
  let b = Runner.random_binding (rng ()) g in
  let v, ids =
    Faults.record_consulted (fun () -> D.Harness.test D.Systems.oxrt g b)
  in
  check "relu passes" true (v = D.Harness.Pass);
  check "an OxRT guard was consulted" true
    (List.exists (fun id -> String.starts_with ~prefix:"oxrt." id) ids);
  check "the unreached AveragePool guard was not" false
    (List.mem "oxrt.avgpool_include_pad" ids);
  check "no Lotus guard was consulted" false
    (List.exists (fun id -> String.starts_with ~prefix:"lotus." id) ids);
  check "ids are sorted" true (ids = List.sort compare ids);
  let (), outer =
    Faults.record_consulted (fun () ->
        (match
           Faults.record_consulted (fun () ->
               ignore (Faults.enabled "lotus.vectorize_tail");
               failwith "scope raised")
         with
        | _ -> Alcotest.fail "the inner scope must raise"
        | exception Failure _ -> ());
        ignore (Faults.enabled "oxrt.cast_chain_wrap"))
  in
  check "inner ids reach the outer scope; the outer scope records again"
    true
    (outer = [ "lotus.vectorize_tail"; "oxrt.cast_chain_wrap" ]);
  let (), fresh = Faults.record_consulted (fun () -> ()) in
  check "a new scope starts empty" true (fresh = [])

(* The ledger's order rule.  Twelve outcomes, with failures, are offered
   in a scrambled index order with one failing index held back: the ledger
   applies only the prefix below that gap, its flush applies the rest in
   ascending order, and the corpus bytes equal those of saving the same
   failures directly in ascending index order. *)
let test_ledger_order_rule () =
  let module Ledger = D.Pfuzz.Ledger in
  let all_ids = List.map (fun (b : Faults.bug) -> b.b_id) Faults.catalogue in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let with_dir k =
    let dir = Filename.temp_file "nnsmith_ledger_test" "" in
    Sys.remove dir;
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> k dir)
  in
  let index_bytes dir =
    let path = Filename.concat dir "index.jsonl" in
    if not (Sys.file_exists path) then ""
    else In_channel.with_open_bin path In_channel.input_all
  in
  Faults.with_bugs all_ids @@ fun () ->
  let n = 12 in
  let outcomes =
    Array.init n (fun i ->
        D.Pfuzz.run_one ~systems:D.Systems.all
          ~seed:(Nnsmith_parallel.Splitmix.derive ~root:7 ~index:i)
          ())
  in
  let failing =
    List.filter
      (fun i -> outcomes.(i).D.Pfuzz.o_failures <> [])
      (List.init n Fun.id)
  in
  check "at least three failing indices" true (List.length failing >= 3);
  let gap = List.nth failing 1 in
  let order =
    List.filter (fun i -> i <> gap) [ 9; 3; 11; 0; 7; 1; 5; 10; 2; 8; 4; 6 ]
  in
  check "failures arrive out of index order" true
    (let arrivals = List.filter (fun i -> List.mem i failing) order in
     arrivals <> List.sort compare arrivals);
  with_dir @@ fun dir ->
  let l = Ledger.create ~report_dir:dir () in
  let applied = ref [] in
  List.iter
    (fun i ->
      Ledger.offer l i outcomes.(i) i;
      let rec drain () =
        match Ledger.apply_next l with
        | Some j ->
            applied := j :: !applied;
            drain ()
        | None -> ()
      in
      drain ())
    order;
  check_int "the applied prefix stops at the gap" gap (Ledger.applied l);
  check "the prefix is applied in index order" true
    (List.rev !applied = List.init gap Fun.id);
  check "the flush applies the rest in ascending order" true
    (Ledger.flush l = List.filter (fun i -> i > gap) (List.init n Fun.id));
  with_dir @@ fun ref_dir ->
  let corpus = Nnsmith_corpus.Corpus.open_ ref_dir in
  List.iter
    (fun i ->
      if i <> gap then
        List.iter
          (fun (f : D.Pfuzz.failure) ->
            ignore
              (D.Report.save_failure corpus ~system:f.f_system
                 ~generator:f.f_generator ~seed:f.f_seed
                 ~export_bugs:f.f_export_bugs f.f_graph f.f_binding
                 f.f_verdict))
          outcomes.(i).o_failures)
    (List.init n Fun.id);
  check "the corpus has cases" true (index_bytes ref_dir <> "");
  check "corpus bytes equal an in-order save" true
    (index_bytes dir = index_bytes ref_dir)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "difftest"
    [
      ( "harness",
        [
          tc "pass" `Quick test_harness_pass;
          tc "skips NaN" `Quick test_harness_skips_nan;
          tc "detects crash" `Quick test_harness_detects_crash;
          tc "semantic frontend localisation" `Quick test_harness_semantic_localisation;
          tc "semantic optimizer localisation" `Quick test_harness_opt_localisation;
          tc "bug id parsing" `Quick test_bug_id_parsing;
          tc "systems leave inputs intact" `Quick test_systems_leave_inputs_intact;
        ] );
      ( "exporter",
        [
          tc "clean without bugs" `Quick test_exporter_clean_without_bugs;
          tc "log2 scalar rank-1" `Quick test_exporter_log2_scalar;
          tc "clip i32 chain" `Quick test_exporter_clip_i32_chain;
        ] );
      ( "support",
        [
          tc "probing finds full support" `Slow test_support_probing;
          tc "single-template probe" `Quick test_support_detects_rejection;
        ] );
      ( "opinst",
        [
          tc "counting" `Quick test_opinst_counting;
          tc "attrs distinguish" `Quick test_opinst_distinguishes_attrs;
        ] );
      ( "campaigns",
        [
          tc "coverage smoke" `Slow test_coverage_campaign_smoke;
          tc "telemetry spans" `Slow test_campaign_telemetry_spans;
          tc "tzer smoke" `Quick test_tzer_campaign_smoke;
        ] );
      ( "bughunt",
        [
          tc "finds seeded bugs" `Slow test_bughunt_finds_seeded_bugs;
          tc "lemon limits" `Slow test_lemon_cannot_trigger_shape_bugs;
          tc "attribution = exhaustive" `Slow test_attribution_exact;
          tc "consulted guards" `Quick test_record_consulted;
        ] );
      ("ledger", [ tc "order rule" `Quick test_ledger_order_rule ]);
    ]
