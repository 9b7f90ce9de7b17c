(* Tests for the static HTML dashboard (lib/dashboard): renders from a
   real journaled campaign, tolerates empty and torn inputs, never emits
   NaN, and keeps its HTML well-formed (balanced tags). *)

module J = Nnsmith_journal.Journal
module Dash = Nnsmith_dashboard.Dashboard
module P = Nnsmith_parallel
module Tel = Nnsmith_telemetry.Telemetry
module Faults = Nnsmith_faults.Faults
module D = Nnsmith_difftest

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_tmp_dir k =
  let dir = Filename.temp_file "nnsmith_dash_test" "" in
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

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let count_sub hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i acc =
    if i + m > n then acc
    else go (i + 1) (if String.sub hay i m = needle then acc + 1 else acc)
  in
  go 0 0

(* a tiny journaled, corpus-backed campaign to render *)
let run_campaign dir =
  Faults.activate_all ();
  Fun.protect ~finally:Faults.deactivate_all (fun () ->
      Tel.reset ();
      let j = J.create ~path:(J.in_dir dir) () in
      ignore
        (D.Pfuzz.fuzz ~jobs:2 ~journal:j ~report_dir:dir
           ~systems:[ D.Systems.oxrt ] ~root_seed:3
           ~budget:(P.Pool.Tests 40) ());
      J.close j;
      (* the CLI appends a final snapshot next to the journal; the
         telemetry section (incl. the derived pre-screen rates) renders
         from it *)
      Tel.append_jsonl (Filename.concat dir "telemetry.jsonl") (Tel.snapshot ()))

let well_formed html =
  (* every opened tag we emit is explicitly closed; check the pairs we
     actually use *)
  List.for_all
    (fun tag ->
      count_sub html ("<" ^ tag) >= count_sub html ("</" ^ tag ^ ">")
      && count_sub html ("<" ^ tag ^ ">") <= count_sub html ("</" ^ tag ^ ">"))
    [ "section"; "table"; "thead"; "tbody"; "tr"; "td"; "th"; "details" ]

let test_render_full_campaign () =
  with_tmp_dir (fun dir ->
      run_campaign dir;
      let html = Dash.of_dir ~bench_dir:dir dir in
      check "doctype" true (contains html "<!DOCTYPE html>");
      check "no NaN anywhere" false (contains html "NaN");
      check "no nan in svg" false (contains html "nan");
      check "well-formed" true (well_formed html);
      check "campaign tiles" true (contains html "Campaign");
      check "triage table present" true (contains html "Bug triage");
      check "triage rows non-empty" true (contains html "oxrt.import");
      check "journal health" true (contains html "Journal health");
      check "prescreen hit rate surfaced" true
        (contains html "prescreen hit rate");
      check "prescreen avoided calls surfaced" true
        (contains html "prescreen solver calls avoided");
      check "zero JS" false (contains html "<script"))

let test_render_torn_journal () =
  (* a campaign killed mid-write must still render *)
  with_tmp_dir (fun dir ->
      run_campaign dir;
      let path = J.in_dir dir in
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let all = really_input_string ic len in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub all 0 (len - 25));
      close_out oc;
      let html = Dash.of_dir ~bench_dir:dir dir in
      check "renders" true (contains html "<!DOCTYPE html>");
      check "tear surfaced" true (contains html "torn");
      check "no NaN" false (contains html "NaN"))

let test_render_empty_dir () =
  with_tmp_dir (fun dir ->
      let html = Dash.of_dir ~bench_dir:dir dir in
      check "renders" true (contains html "<!DOCTYPE html>");
      check "empty states, not errors" true (contains html "no journal found");
      check "no NaN" false (contains html "NaN");
      check "well-formed" true (well_formed html))

let test_escaping () =
  (* hostile strings in the journal must not break out of the HTML *)
  with_tmp_dir (fun dir ->
      let j = J.create ~path:(J.in_dir dir) () in
      J.emit j
        (J.Bug
           {
             b_at_ms = 1.;
             b_key = "<script>alert('x')</script>";
             b_system = "Ox<R>T";
             b_verdict = "crash";
             b_case = "";
             b_nodes = 1;
             b_count = 1;
             b_new = true;
             b_reducer = None;
           });
      J.close j;
      let html = Dash.of_dir ~bench_dir:dir dir in
      check "script tag escaped" false (contains html "<script>alert");
      check "escaped form present" true (contains html "&lt;script&gt;"))

let test_bench_history_section () =
  with_tmp_dir (fun dir ->
      let bdir = Filename.concat dir "bench" in
      Unix.mkdir bdir 0o755;
      Fun.protect
        ~finally:(fun () ->
          (try
             Sys.readdir bdir
             |> Array.iter (fun f -> Sys.remove (Filename.concat bdir f))
           with Sys_error _ -> ());
          try Unix.rmdir bdir with Unix.Unix_error _ -> ())
        (fun () ->
          let oc = open_out (Filename.concat bdir "history.jsonl") in
          output_string oc
            "{\"commit\":\"abc1234\",\"experiment\":\"parallel\",\"tests_per_sec\":41.5,\"digest\":\"d\"}\n\
             {\"commit\":\"def5678\",\"experiment\":\"parallel\",\"tests_per_sec\":44.0,\"digest\":\"d\"}\n";
          close_out oc;
          let html = Dash.of_dir ~bench_dir:dir dir in
          check "bench section" true (contains html "Benchmark history");
          check "commit listed" true (contains html "abc1234");
          check "no NaN" false (contains html "NaN")))

let test_sparkline_guards () =
  (* non-finite coverage values must be filtered, not charted *)
  with_tmp_dir (fun dir ->
      let j = J.create ~path:(J.in_dir dir) () in
      List.iter (J.emit j)
        [
          J.Coverage { c_at_ms = 1.; c_tests = 1; c_total = 10; c_pass = 5 };
          J.Coverage { c_at_ms = 2.; c_tests = 2; c_total = 20; c_pass = 9 };
        ];
      J.close j;
      let html = Dash.of_dir ~bench_dir:dir dir in
      check "chart drawn" true (contains html "<polyline");
      check "no NaN coordinates" false (contains html "NaN");
      check_int "one chart" 1 (count_sub html "<polyline"))

let test_refresh_tag () =
  with_tmp_dir (fun dir ->
      let plain = Dash.of_dir ~bench_dir:dir dir in
      check "no refresh tag by default" false
        (contains plain "http-equiv=\"refresh\"");
      let live = Dash.of_dir ~bench_dir:dir ~refresh_secs:5 dir in
      check "refresh tag present" true
        (contains live "<meta http-equiv=\"refresh\" content=\"5\">"))

let heartbeat ~at_ms =
  J.Heartbeat
    {
      h_worker = 0;
      h_seq = int_of_float (at_ms /. 1000.);
      h_at_ms = at_ms;
      h_tests = 1;
      h_verdicts = [ ("pass", 1) ];
      h_cov_total = 0;
      h_cov_pass = 0;
      h_cov_universe = 0;
    }

let summary ~at_ms =
  J.Summary
    {
      f_at_ms = at_ms;
      f_tests = 4;
      f_tests_per_sec = 1.;
      f_verdicts = [ ("pass", 4) ];
      f_failures = 0;
      f_saved = 0;
      f_dups = 0;
      f_cov_total = 0;
      f_cov_pass = 0;
      f_dropped = 0;
    }

let write_journal dir events =
  let j = J.create ~path:(J.in_dir dir) () in
  List.iter (J.emit j) events;
  J.close j

let test_stale_heartbeat () =
  (* heartbeats every ~1s, last one long ago, no concluding summary:
     the campaign is possibly dead and the page must say so *)
  let beats =
    [
      heartbeat ~at_ms:1000.;
      heartbeat ~at_ms:2000.;
      heartbeat ~at_ms:3000.;
      heartbeat ~at_ms:4000.;
    ]
  in
  with_tmp_dir (fun dir ->
      write_journal dir beats;
      let html = Dash.of_dir ~bench_dir:dir ~now_ms:60_000. dir in
      check "stale campaign flagged" true (contains html "possibly dead");
      check "resume hint offered" true (contains html "--resume"));
  (* same heartbeats observed promptly: healthy *)
  with_tmp_dir (fun dir ->
      write_journal dir beats;
      let html = Dash.of_dir ~bench_dir:dir ~now_ms:4500. dir in
      check "fresh heartbeat not flagged" false (contains html "possibly dead"));
  (* a concluding summary means the campaign ended, however old it is *)
  with_tmp_dir (fun dir ->
      write_journal dir (beats @ [ summary ~at_ms:4200. ]);
      let html = Dash.of_dir ~bench_dir:dir ~now_ms:60_000. dir in
      check "finished campaign not flagged" false (contains html "possibly dead"))

let test_worker_crash_surfaced () =
  with_tmp_dir (fun dir ->
      write_journal dir
        [
          heartbeat ~at_ms:1000.;
          J.Worker_crash
            {
              wc_at_ms = 1500.;
              wc_worker = 1;
              wc_index = 7;
              wc_seed = 42;
              wc_cause = "signal 9";
              wc_restarts = 1;
            };
          summary ~at_ms:2000.;
        ];
      let html = Dash.of_dir ~bench_dir:dir dir in
      check "worker crash counted" true (contains html "1 worker crash");
      check "no NaN" false (contains html "NaN"))

let () =
  Alcotest.run "dashboard"
    [
      ( "render",
        [
          Alcotest.test_case "full campaign" `Slow test_render_full_campaign;
          Alcotest.test_case "torn journal" `Slow test_render_torn_journal;
          Alcotest.test_case "empty directory" `Quick test_render_empty_dir;
          Alcotest.test_case "hostile strings escaped" `Quick test_escaping;
          Alcotest.test_case "bench history" `Quick
            test_bench_history_section;
          Alcotest.test_case "sparkline guards" `Quick test_sparkline_guards;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "refresh tag" `Quick test_refresh_tag;
          Alcotest.test_case "stale heartbeat" `Quick test_stale_heartbeat;
          Alcotest.test_case "worker crash surfaced" `Quick
            test_worker_crash_surfaced;
        ] );
    ]
