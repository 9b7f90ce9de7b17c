(* Tests for lib/bench: deterministic counter capture (Metrics) and the
   per-commit history database + regression gate (History).  The reader
   tests mirror the journal's torn-tail discipline: a killed writer must
   never poison the intact prefix. *)

module Metrics = Nnsmith_bench.Metrics
module History = Nnsmith_bench.History
module Tel = Nnsmith_telemetry.Telemetry
module Json = Nnsmith_telemetry.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_tmp_dir k =
  let dir = Filename.temp_file "nnsmith_bench_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (try
         Sys.readdir dir
         |> Array.iter (fun f -> Sys.remove (Filename.concat dir f))
       with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> k dir)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_capture_gates_counters () =
  Tel.reset ();
  let (), c =
    Metrics.capture (fun () ->
        Tel.incr ~by:7 "gen/test_models";
        Tel.incr ~by:3 "journal/test_heartbeats";
        ignore (Sys.opaque_identity (List.init 1000 (fun i -> (i, i * i)))))
  in
  check_int "work counter captured" 7
    (Option.value ~default:0
       (Option.map snd
          (List.find_opt (fun (k, _) -> k = "gen/test_models") c.Metrics.mc_work)));
  check "time-driven counter excluded" true
    (List.for_all (fun (k, _) -> k <> "journal/test_heartbeats")
       c.Metrics.mc_work);
  check "allocation observed" true (Metrics.alloc_words c > 0.)

let test_capture_deterministic () =
  let round () =
    ignore
      (Sys.opaque_identity
         (List.init 5000 (fun i -> string_of_int (i * 17))))
  in
  Tel.reset ();
  round ();  (* warm up *)
  let (), c1 = Metrics.capture round in
  let (), c2 = Metrics.capture round in
  check "work counters bit-stable" true (Metrics.work_diff c1 c2 = []);
  check "alloc words bit-stable" true
    (Metrics.alloc_words c1 = Metrics.alloc_words c2)

let test_work_diff_one_sided () =
  let base =
    {
      Metrics.mc_minor_words = 0.;
      mc_major_words = 0.;
      mc_promoted_words = 0.;
      mc_work = [ ("gen/a", 1); ("smt/b", 2) ];
    }
  in
  let other = { base with Metrics.mc_work = [ ("gen/a", 1); ("exec/c", 5) ] } in
  let diffs = Metrics.work_diff base other in
  check_int "two one-sided keys differ" 2 (List.length diffs);
  check "absent key reads as zero" true
    (List.mem ("smt/b", 2, 0) diffs && List.mem ("exec/c", 0, 5) diffs)

let test_metrics_json_roundtrip () =
  let c =
    {
      Metrics.mc_minor_words = 123456.;
      mc_major_words = 789.;
      mc_promoted_words = 42.;
      mc_work = [ ("exec/kernel_runs", 9); ("smt/solves", 31) ];
    }
  in
  match Metrics.of_json (Metrics.to_json c) with
  | None -> Alcotest.fail "metrics round-trip failed to parse"
  | Some c' ->
      check "counters round-trip" true (c = c');
      check "no diff after round-trip" true (Metrics.work_diff c c' = [])

(* ------------------------------------------------------------------ *)
(* History rows and the tolerant reader                                *)

let mk ?counters ?workload ?parent ?(schema = History.schema_version)
    ?(commit = "c0ffee1") ?(tps = 100.) ?(digest = "d") experiment =
  {
    History.hr_schema = schema;
    hr_commit = commit;
    hr_parent = parent;
    hr_experiment = experiment;
    hr_workload = workload;
    hr_tests_per_sec = tps;
    hr_digest = digest;
    hr_counters = counters;
  }

let counters ?(work = [ ("smt/solves", 10) ]) alloc =
  {
    Metrics.mc_minor_words = alloc;
    mc_major_words = 0.;
    mc_promoted_words = 0.;
    mc_work = work;
  }

let test_row_roundtrip () =
  let r =
    mk ~counters:(counters 5000.) ~workload:"tests=80" ~parent:"fee1bad"
      "solver_cache"
  in
  (match History.row_of_json (History.row_to_json r) with
  | None -> Alcotest.fail "schema-2 row failed to round-trip"
  | Some r' -> check "schema-2 round-trip" true (r = r'));
  (* a v1 row: no schema field, no workload/parent/counters *)
  let v1 =
    "{\"commit\":\"abc1234\",\"experiment\":\"parallel\",\
     \"tests_per_sec\":41.5,\"digest\":\"tests=80\"}"
  in
  match Json.parse v1 with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match History.row_of_json j with
      | None -> Alcotest.fail "v1 row rejected"
      | Some r ->
          check_int "missing schema reads as v1" 1 r.History.hr_schema;
          check "no counters on v1" true (r.History.hr_counters = None);
          check "no workload on v1" true (r.History.hr_workload = None))

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let test_reader_torn_tail () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "history.jsonl" in
      let good r = Json.to_string (History.row_to_json r) in
      write_lines path
        [
          good (mk "parallel");
          good (mk ~workload:"tests=80" "solver_cache");
          "{\"commit\":\"truncated-mid-app";
        ];
      let r = History.read path in
      check_int "intact prefix kept" 2 (List.length r.History.rr_rows);
      check "torn tail flagged" true r.History.rr_torn_tail;
      check_int "torn tail is not a bad line" 0 r.History.rr_bad_lines)

let test_reader_interior_garbage_and_mixed_schemas () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "history.jsonl" in
      let good r = Json.to_string (History.row_to_json r) in
      write_lines path
        [
          (* v1 row *)
          "{\"commit\":\"abc1234\",\"experiment\":\"parallel\",\
           \"tests_per_sec\":41.5,\"digest\":\"d\"}";
          "this is not json at all";
          (* valid json, but not a row: mandatory fields missing *)
          "{\"schema\":2,\"commit\":\"abc1234\"}";
          good (mk ~counters:(counters 100.) ~workload:"tests=80" "batch");
        ];
      let r = History.read path in
      check_int "v1 and v2 rows both read" 2 (List.length r.History.rr_rows);
      check_int "garbage + invalid row counted" 2 r.History.rr_bad_lines;
      check "no torn tail" false r.History.rr_torn_tail;
      match r.History.rr_rows with
      | [ a; b ] ->
          check_int "v1 schema" 1 a.History.hr_schema;
          check_int "v2 schema" History.schema_version b.History.hr_schema
      | _ -> Alcotest.fail "unexpected row shapes")

let test_reader_missing_counter_fields () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "history.jsonl" in
      (* counters object present but missing major_words: the row must
         still parse, just without counters *)
      write_lines path
        [
          "{\"schema\":2,\"commit\":\"abc1234\",\"experiment\":\"batch\",\
           \"tests_per_sec\":50,\"digest\":\"d\",\"workload\":\"replay=40\",\
           \"counters\":{\"minor_words\":100}}";
        ];
      match (History.read path).History.rr_rows with
      | [ r ] ->
          check "row survives partial counters" true
            (r.History.hr_counters = None);
          check "workload kept" true (r.History.hr_workload = Some "replay=40")
      | rows ->
          Alcotest.failf "expected 1 row, got %d" (List.length rows))

let test_append_and_latest () =
  with_tmp_dir (fun dir ->
      let r1 = mk ~commit:"aaaa111" ~workload:"tests=80" "solver_cache" in
      let r2 = mk ~commit:"aaaa111" ~workload:"replay=40" "batch" in
      let r3 = mk ~commit:"bbbb222" ~workload:"tests=80" "solver_cache" in
      History.append ~dir r1;
      History.append ~dir r2;
      let latest = Filename.concat dir "latest.json" in
      check_int "latest holds both experiments" 2
        (List.length (History.read latest).History.rr_rows);
      History.append ~dir r3;
      (* a new commit resets latest.json *)
      (match (History.read latest).History.rr_rows with
      | [ r ] -> check "latest reset to new commit" true (r = r3)
      | rows ->
          Alcotest.failf "expected 1 latest row, got %d" (List.length rows));
      check_int "history keeps everything" 3
        (List.length
           (History.read (Filename.concat dir "history.jsonl")).History.rr_rows))

(* ------------------------------------------------------------------ *)
(* The regression gate                                                 *)

let status_of rows exp =
  let vs = History.regress rows in
  (List.find (fun v -> v.History.v_experiment = exp) vs).History.v_status

let test_regress_identical_rerun_ok () =
  let base =
    mk ~commit:"aaaa111" ~counters:(counters 10000.) ~workload:"tests=80"
      "solver_cache"
  in
  let rerun = { base with History.hr_commit = "bbbb222"; hr_tests_per_sec = 60. } in
  (* a re-run of HEAD: identical counters, slower wall-clock — passes *)
  match status_of [ base; rerun ] "solver_cache" with
  | `Ok -> ()
  | `Regressed fs -> Alcotest.failf "rerun regressed: %s" (String.concat "; " fs)
  | `Skipped r -> Alcotest.failf "rerun skipped: %s" r

let test_regress_same_commit_rerun () =
  (* a row left by an earlier run at the same commit is not the committed
     baseline: appending a regressed row twice must not make the second
     copy pass against the first *)
  let base =
    mk ~commit:"aaaa111"
      ~counters:(counters ~work:[ ("smt/check", 196) ] 1000.)
      ~workload:"tests=80" "solver_cache"
  in
  let run =
    {
      base with
      History.hr_commit = "bbbb222";
      hr_counters = Some (counters ~work:[ ("smt/check", 203) ] 1000.);
    }
  in
  match status_of [ base; run; run ] "solver_cache" with
  | `Regressed _ -> ()
  | `Ok -> Alcotest.fail "a same-commit row became the baseline"
  | `Skipped r -> Alcotest.failf "re-run skipped: %s" r

let test_regress_alloc_gate () =
  let base =
    mk ~commit:"aaaa111" ~counters:(counters 10000.) ~workload:"tests=80"
      "solver_cache"
  in
  let worse c = { base with History.hr_commit = "bbbb222"; hr_counters = Some c } in
  (* +3% allocation: beyond the 2% tolerance, gate fails *)
  (match status_of [ base; worse (counters 10300.) ] "solver_cache" with
  | `Regressed _ -> ()
  | _ -> Alcotest.fail "3% allocation growth accepted");
  (* +1%: within tolerance *)
  (match status_of [ base; worse (counters 10100.) ] "solver_cache" with
  | `Ok -> ()
  | _ -> Alcotest.fail "1% allocation growth rejected");
  (* allocation shrinking is never a failure, but a fall past the
     tolerance asks for a re-record instead of reading as within it *)
  let notes_of rows =
    (List.find
       (fun v -> v.History.v_experiment = "solver_cache")
       (History.regress rows))
      .History.v_notes
  in
  let alloc_note rows =
    List.find
      (fun n -> String.starts_with ~prefix:"allocation words" n)
      (notes_of rows)
  in
  (match status_of [ base; worse (counters 5000.) ] "solver_cache" with
  | `Ok -> ()
  | _ -> Alcotest.fail "allocation improvement rejected");
  Alcotest.(check string)
    "a 50% fall asks for a re-record"
    "allocation words: 10000 -> 5000 (-50.00%, a fall past the 2% \
     tolerance: re-record this row)"
    (alloc_note [ base; worse (counters 5000.) ]);
  Alcotest.(check string)
    "a 1% fall is within the tolerance"
    "allocation words: 10000 -> 9900 (-1.00%, within 2%)"
    (alloc_note [ base; worse (counters 9900.) ])

let test_regress_work_counter_gate () =
  let base =
    mk ~commit:"aaaa111"
      ~counters:(counters ~work:[ ("smt/solves", 10) ] 1000.)
      ~workload:"tests=80" "solver_cache"
  in
  let changed =
    {
      base with
      History.hr_commit = "bbbb222";
      hr_counters = Some (counters ~work:[ ("smt/solves", 11) ] 1000.);
    }
  in
  (match status_of [ base; changed ] "solver_cache" with
  | `Regressed fs ->
      check "failure names the counter" true
        (List.exists
           (fun f ->
             String.length f >= 10
             && String.sub f 0 12 = "work counter")
           fs)
  | _ -> Alcotest.fail "work-counter change accepted");
  (* a counter appearing on one side only also gates *)
  let added =
    {
      base with
      History.hr_commit = "bbbb222";
      hr_counters =
        Some (counters ~work:[ ("smt/solves", 10); ("exec/kernel_runs", 4) ] 1000.);
    }
  in
  match status_of [ base; added ] "solver_cache" with
  | `Regressed _ -> ()
  | _ -> Alcotest.fail "added counter accepted"

let test_regress_skips () =
  (* unknown experiment: warn, never gate *)
  let retired = mk ~workload:"tests=80" "retired_exp" in
  (match
     (List.hd (History.regress ~known:[ "solver_cache" ] [ retired ]))
       .History.v_status
   with
  | `Skipped _ -> ()
  | _ -> Alcotest.fail "unknown experiment not skipped");
  (* workload mismatch: different budget, not comparable *)
  let base = mk ~commit:"aaaa111" ~workload:"tests=80" "solver_cache" in
  let bigger =
    { base with History.hr_commit = "bbbb222"; hr_workload = Some "tests=240" }
  in
  (match status_of [ base; bigger ] "solver_cache" with
  | `Skipped _ -> ()
  | _ -> Alcotest.fail "workload mismatch not skipped");
  (* legacy rows with no workload key cannot be compared *)
  let legacy = mk ~schema:1 "parallel" in
  match status_of [ legacy; { legacy with History.hr_commit = "bbbb222" } ] "parallel" with
  | `Skipped _ -> ()
  | _ -> Alcotest.fail "legacy rows not skipped"

let test_regress_wall_clock_advisory () =
  (* rows without counters: wall-clock collapse alone never fails *)
  let base = mk ~commit:"aaaa111" ~workload:"tests=80" ~tps:100. "parallel" in
  let slow =
    { base with History.hr_commit = "bbbb222"; hr_tests_per_sec = 10. }
  in
  match History.regress [ base; slow ] with
  | [ v ] -> (
      match v.History.v_status with
      | `Ok ->
          check "advisory note present" true
            (List.exists
               (fun n ->
                 String.length n >= 10 && String.sub n 0 10 = "wall-clock")
               v.History.v_notes)
      | _ -> Alcotest.fail "wall-clock drop gated without counters")
  | vs -> Alcotest.failf "expected 1 verdict, got %d" (List.length vs)

let () =
  Alcotest.run "bench"
    [
      ( "metrics",
        [
          Alcotest.test_case "capture gates counters" `Quick
            test_capture_gates_counters;
          Alcotest.test_case "capture deterministic" `Quick
            test_capture_deterministic;
          Alcotest.test_case "work_diff one-sided keys" `Quick
            test_work_diff_one_sided;
          Alcotest.test_case "json round-trip" `Quick
            test_metrics_json_roundtrip;
        ] );
      ( "history",
        [
          Alcotest.test_case "row round-trip v1+v2" `Quick test_row_roundtrip;
          Alcotest.test_case "torn tail tolerated" `Quick
            test_reader_torn_tail;
          Alcotest.test_case "interior garbage + mixed schemas" `Quick
            test_reader_interior_garbage_and_mixed_schemas;
          Alcotest.test_case "missing counter fields" `Quick
            test_reader_missing_counter_fields;
          Alcotest.test_case "append + latest.json" `Quick
            test_append_and_latest;
        ] );
      ( "regress",
        [
          Alcotest.test_case "identical re-run passes" `Quick
            test_regress_identical_rerun_ok;
          Alcotest.test_case "same-commit re-run is no baseline" `Quick
            test_regress_same_commit_rerun;
          Alcotest.test_case "allocation gate" `Quick test_regress_alloc_gate;
          Alcotest.test_case "work-counter gate" `Quick
            test_regress_work_counter_gate;
          Alcotest.test_case "skips never gate" `Quick test_regress_skips;
          Alcotest.test_case "wall-clock advisory only" `Quick
            test_regress_wall_clock_advisory;
        ] );
    ]
