(* Tests for the campaign event journal (lib/journal): JSON round-trips,
   crash-safety of the tolerant reader (torn tails, garbage lines),
   single-writer discipline under two-domain producers, jobs-count
   agreement of journaled campaigns, and the live progress renderer. *)

module J = Nnsmith_journal.Journal
module Progress = Nnsmith_journal.Progress
module P = Nnsmith_parallel
module Tel = Nnsmith_telemetry.Telemetry
module Faults = Nnsmith_faults.Faults
module D = Nnsmith_difftest

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_tmp_dir k =
  let dir = Filename.temp_file "nnsmith_journal_test" "" in
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

let sample_events =
  [
    J.Start
      {
        s_at_ms = 100.;
        s_kind = "fuzz";
        s_systems = [ "OxRT"; "Lotus" ];
        s_generator = "NNSmith";
        s_root_seed = 42;
        s_jobs = 4;
        s_budget = J.B_tests 200;
      };
    J.Heartbeat
      {
        h_worker = 1;
        h_seq = 3;
        h_at_ms = 350.;
        h_tests = 17;
        h_verdicts = [ ("crash", 2); ("pass", 15) ];
        h_cov_total = 120;
        h_cov_pass = 90;
        h_cov_universe = 300;
      };
    J.Bug
      {
        b_at_ms = 400.;
        b_key = "[oxrt.import] boom";
        b_system = "OxRT";
        b_verdict = "crash";
        b_case = "0001--oxrt";
        b_nodes = 7;
        b_count = 1;
        b_new = true;
        b_reducer =
          Some
            {
              rd_attempts = 12;
              rd_accepted = 4;
              rd_initial = 10;
              rd_final = 3;
              rd_ms = 8.5;
            };
      };
    J.Coverage { c_at_ms = 500.; c_tests = 40; c_total = 150; c_pass = 100 };
    J.Op_stats
      {
        o_at_ms = 600.;
        o_ops = [ ("Add", [ ("crash", 1); ("pass", 9) ]); ("Relu", [ ("pass", 4) ]) ];
      };
    J.Dropped { d_at_ms = 650.; d_count = 3 };
    J.Shard_done
      { sd_at_ms = 660.; sd_worker = 2; sd_tests = 66; sd_last_index = 197 };
    J.Worker_crash
      {
        wc_at_ms = 670.;
        wc_worker = 1;
        wc_index = 41;
        wc_seed = 123456789;
        wc_cause = "signal 9";
        wc_restarts = 2;
      };
    J.Resume { rs_at_ms = 680.; rs_applied = 120; rs_tests = 200; rs_shards = 4 };
    J.Summary
      {
        f_at_ms = 700.;
        f_tests = 200;
        f_tests_per_sec = 333.3;
        f_verdicts = [ ("crash", 5); ("pass", 195) ];
        f_failures = 4;
        f_saved = 3;
        f_dups = 2;
        f_cov_total = 180;
        f_cov_pass = 120;
        f_dropped = 3;
      };
  ]

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)

let test_roundtrip () =
  List.iter
    (fun ev ->
      let line = Nnsmith_telemetry.Json.to_string (J.to_json ev) in
      match J.event_of_line line with
      | Ok ev' -> check "round-trips" true (ev = ev')
      | Error m -> Alcotest.failf "round-trip failed: %s on %s" m line)
    sample_events

let test_budget_roundtrip () =
  List.iter
    (fun budget ->
      let ev =
        J.Start
          {
            s_at_ms = 0.;
            s_kind = "k";
            s_systems = [];
            s_generator = "g";
            s_root_seed = 0;
            s_jobs = 1;
            s_budget = budget;
          }
      in
      let line = Nnsmith_telemetry.Json.to_string (J.to_json ev) in
      check "budget round-trips" true (J.event_of_line line = Ok ev))
    [ J.B_tests 1; J.B_tests 1_000_000; J.B_time_ms 0.5; J.B_time_ms 3.6e6 ]

(* Heartbeats written before the solver lost its result caches carry two
   extra fields, [cache_hits] and [cache_misses].  Journals in that format
   must still parse, list in [journal tail] and render on the dashboard. *)
let old_format_journal =
  String.concat "\n"
    [
      {|{"ev":"start","at_ms":1000,"kind":"fuzz","systems":["Lotus"],"generator":"NNSmith","root_seed":3,"jobs":1,"budget":{"tests":5}}|};
      {|{"ev":"heartbeat","worker":0,"seq":1,"at_ms":1250,"tests":1,"verdicts":{"pass":1},"cov_total":46,"cov_pass":39,"cov_universe":46,"cache_hits":0,"cache_misses":2}|};
      {|{"ev":"heartbeat","worker":0,"seq":2,"at_ms":1500,"tests":4,"verdicts":{"pass":4},"cov_total":70,"cov_pass":60,"cov_universe":80,"cache_hits":3,"cache_misses":9}|};
      {|{"ev":"summary","at_ms":1600,"tests":5,"tests_per_sec":8.3,"verdicts":{"pass":5},"failures":0,"saved":0,"dups":0,"cov_total":82,"cov_pass":68,"dropped":0}|};
    ]
  ^ "\n"

let test_old_heartbeat_parses () =
  let has s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let line = List.nth (String.split_on_char '\n' old_format_journal) 1 in
  check "heartbeat parses" true
    (J.event_of_line line
    = Ok
        (J.Heartbeat
           {
             h_worker = 0;
             h_seq = 1;
             h_at_ms = 1250.;
             h_tests = 1;
             h_verdicts = [ ("pass", 1) ];
             h_cov_total = 46;
             h_cov_pass = 39;
             h_cov_universe = 46;
           }));
  with_tmp_dir (fun dir ->
      Out_channel.with_open_bin (J.in_dir dir) (fun oc ->
          output_string oc old_format_journal);
      (match J.read_file (J.in_dir dir) with
      | Error m -> Alcotest.failf "read failed: %s" m
      | Ok r ->
          check_int "every event read" 4 (List.length r.J.events);
          check_int "no bad lines" 0 r.J.bad_lines;
          check "no torn tail" false r.J.torn_tail;
          (* what [journal tail] prints *)
          check "tail lines render" true
            (List.for_all (fun ev -> J.summary_line ev <> "") r.J.events));
      let html = Nnsmith_dashboard.Dashboard.of_dir ~bench_dir:dir dir in
      check "dashboard renders the campaign" true (has html "Lotus");
      check "dashboard has no NaN" false (has html "NaN"))

(* ------------------------------------------------------------------ *)
(* Writer basics                                                       *)

let test_write_read () =
  with_tmp_dir (fun dir ->
      let j = J.create ~path:(J.in_dir dir) () in
      List.iter (J.emit j) sample_events;
      J.close j;
      check_int "events_written" (List.length sample_events)
        (J.events_written j);
      match J.read_file (J.in_dir dir) with
      | Error m -> Alcotest.failf "read_file: %s" m
      | Ok r ->
          check "no torn tail" false r.J.torn_tail;
          check_int "no bad lines" 0 r.J.bad_lines;
          check "events round-trip through disk" true
            (r.J.events = sample_events))

let test_append_continues () =
  (* a resumed campaign appends to the existing journal *)
  with_tmp_dir (fun dir ->
      let j1 = J.create ~path:(J.in_dir dir) () in
      J.emit j1 (List.hd sample_events);
      J.close j1;
      let j2 = J.create ~path:(J.in_dir dir) () in
      J.emit j2 (List.nth sample_events 1);
      J.close j2;
      match J.read_file (J.in_dir dir) with
      | Error m -> Alcotest.failf "read_file: %s" m
      | Ok r -> check_int "both sessions present" 2 (List.length r.J.events))

let test_emit_after_close_ignored () =
  with_tmp_dir (fun dir ->
      let j = J.create ~path:(J.in_dir dir) () in
      J.emit j (List.hd sample_events);
      J.close j;
      J.emit j (List.nth sample_events 1);
      match J.read_file (J.in_dir dir) with
      | Error m -> Alcotest.failf "read_file: %s" m
      | Ok r -> check_int "post-close emit dropped" 1 (List.length r.J.events))

let test_null_journal () =
  let j = J.create () in
  List.iter (J.emit j) sample_events;
  J.close j;
  check "no path" true (J.path j = None);
  check_int "still counts" (List.length sample_events) (J.events_written j)

(* ------------------------------------------------------------------ *)
(* Crash-safety: torn tails and garbage                                *)

let test_torn_tail () =
  (* a process killed mid-write leaves a truncated final line: every
     preceding event must survive, and the tear must be reported *)
  let whole =
    String.concat ""
      (List.map
         (fun ev -> Nnsmith_telemetry.Json.to_string (J.to_json ev) ^ "\n")
         sample_events)
  in
  (* cut in the middle of the final line (drop the trailing newline and
     half the summary) *)
  let torn = String.sub whole 0 (String.length whole - 40) in
  let r = J.read_string torn in
  check "torn tail reported" true r.J.torn_tail;
  check_int "all but the torn line survive"
    (List.length sample_events - 1)
    (List.length r.J.events);
  check "surviving prefix intact" true
    (r.J.events
    = List.filteri (fun i _ -> i < List.length sample_events - 1) sample_events)

let test_torn_tail_every_cut () =
  (* readability must hold wherever the kill lands, not just at one
     offset: truncate the journal at every byte position *)
  let whole =
    String.concat ""
      (List.map
         (fun ev -> Nnsmith_telemetry.Json.to_string (J.to_json ev) ^ "\n")
         sample_events)
  in
  for cut = 0 to String.length whole do
    let r = J.read_string (String.sub whole 0 cut) in
    check "never raises, prefix only" true
      (List.length r.J.events <= List.length sample_events
      && r.J.events
         = List.filteri
             (fun i _ -> i < List.length r.J.events)
             sample_events)
  done

let test_garbage_line () =
  let lines =
    List.map
      (fun ev -> Nnsmith_telemetry.Json.to_string (J.to_json ev))
      sample_events
  in
  let with_garbage =
    match lines with
    | first :: rest ->
        String.concat "\n" ((first :: [ "{not json at all" ]) @ rest) ^ "\n"
    | [] -> assert false
  in
  let r = J.read_string with_garbage in
  check "no torn tail (garbage is not the final line)" false r.J.torn_tail;
  check_int "one bad line" 1 r.J.bad_lines;
  check_int "good lines survive"
    (List.length sample_events)
    (List.length r.J.events)

let test_live_appender_race () =
  (* a reader (journal tail --follow, the dashboard) polling a journal
     that a live campaign is appending to must, at every byte boundary of
     an in-flight write, see exactly the intact prefix — never an error,
     never a torn event counted as bad *)
  with_tmp_dir (fun dir ->
      let path = J.in_dir dir in
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          List.iteri
            (fun n ev ->
              let line =
                Nnsmith_telemetry.Json.to_string (J.to_json ev) ^ "\n"
              in
              (* append this event one byte at a time, a racing reader
                 polling after every byte *)
              String.iter
                (fun c ->
                  output_char oc c;
                  flush oc;
                  match J.read_file path with
                  | Error m -> Alcotest.failf "racing reader errored: %s" m
                  | Ok r ->
                      check_int "no bad lines mid-append" 0 r.J.bad_lines;
                      let seen = List.length r.J.events in
                      check "reader sees only the intact prefix" true
                        ((seen = n || seen = n + 1)
                        && r.J.events
                           = List.filteri (fun i _ -> i < seen) sample_events))
                line;
              (* once the newline lands, event n is visible *)
              match J.read_file path with
              | Error m -> Alcotest.failf "read_file: %s" m
              | Ok r ->
                  check_int "completed events all visible" (n + 1)
                    (List.length r.J.events);
                  check "no tear after a complete line" false r.J.torn_tail)
            sample_events))

(* ------------------------------------------------------------------ *)
(* Tail repair (fleet resume reopens the journal for append)           *)

let journal_bytes events =
  String.concat ""
    (List.map
       (fun ev -> Nnsmith_telemetry.Json.to_string (J.to_json ev) ^ "\n")
       events)

let test_repair_tail () =
  with_tmp_dir (fun dir ->
      let path = J.in_dir dir in
      let write s =
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc
      in
      (* clean file: nothing to repair *)
      let whole = journal_bytes sample_events in
      write whole;
      check_int "clean file untouched" 0 (J.repair_tail path);
      check "bytes unchanged" true
        (match J.read_file path with
        | Ok r -> r.J.events = sample_events
        | Error _ -> false);
      (* torn tail: the partial final line is dropped, the file ends at a
         newline, and a subsequent append-mode writer produces a journal
         every event of which parses *)
      let torn = String.sub whole 0 (String.length whole - 25) in
      let partial =
        (* the whole half-written final line goes, not just the cut *)
        String.length torn
        - (match String.rindex_opt torn '\n' with Some i -> i + 1 | None -> 0)
      in
      write torn;
      check_int "torn bytes dropped" partial (J.repair_tail path);
      let j = J.create ~path () in
      J.emit j (List.hd sample_events);
      J.close j;
      (match J.read_file path with
      | Error m -> Alcotest.failf "read_file after repair: %s" m
      | Ok r ->
          check "no bad lines after repair + append" true
            (r.J.bad_lines = 0 && not r.J.torn_tail);
          check_int "prefix plus the appended event"
            (List.length sample_events)
            (List.length r.J.events));
      (* missing and empty files are no-ops *)
      Sys.remove path;
      check_int "missing file" 0 (J.repair_tail path);
      write "";
      check_int "empty file" 0 (J.repair_tail path))

(* ------------------------------------------------------------------ *)
(* Single-writer discipline with two producer domains                  *)

let test_two_domain_interleave () =
  (* the pool's shape: two domains produce events, a channel funnels them
     to the one domain that owns the writer; everything sent must read
     back losslessly *)
  with_tmp_dir (fun dir ->
      let n = 200 in
      let chan = P.Chan.create ~producers:2 () in
      let producer w =
        Domain.spawn (fun () ->
            for seq = 1 to n do
              P.Chan.send chan
                (J.Heartbeat
                   {
                     h_worker = w;
                     h_seq = seq;
                     h_at_ms = float_of_int ((seq * 10) + w);
                     h_tests = seq;
                     h_verdicts = [ ("pass", seq) ];
                     h_cov_total = 0;
                     h_cov_pass = 0;
                     h_cov_universe = 0;
                   })
            done;
            P.Chan.producer_done chan)
      in
      let d0 = producer 0 and d1 = producer 1 in
      let j = J.create ~path:(J.in_dir dir) () in
      let rec drain () =
        match P.Chan.recv chan with
        | Some ev ->
            J.emit j ev;
            drain ()
        | None -> ()
      in
      drain ();
      Domain.join d0;
      Domain.join d1;
      J.close j;
      match J.read_file (J.in_dir dir) with
      | Error m -> Alcotest.failf "read_file: %s" m
      | Ok r ->
          check "clean file" true ((not r.J.torn_tail) && r.J.bad_lines = 0);
          check_int "every event from both domains" (2 * n)
            (List.length r.J.events);
          (* per-worker sequence numbers must each be a complete,
             strictly increasing 1..n run *)
          List.iter
            (fun w ->
              let seqs =
                List.filter_map
                  (function
                    | J.Heartbeat h when h.h_worker = w -> Some h.h_seq
                    | _ -> None)
                  r.J.events
              in
              check "worker stream ordered and complete" true
                (seqs = List.init n (fun i -> i + 1)))
            [ 0; 1 ])

(* ------------------------------------------------------------------ *)
(* Journaled campaigns: jobs=1 vs jobs=4 agreement                     *)

let journal_aggregates dir =
  match J.read_file (J.in_dir dir) with
  | Error m -> Alcotest.failf "read_file: %s" m
  | Ok r ->
      let summary =
        List.find_map
          (function
            | J.Summary f -> Some (f.f_tests, f.f_verdicts, f.f_failures)
            | _ -> None)
          r.J.events
      in
      let bug_keys =
        List.sort_uniq compare
          (List.filter_map
             (function J.Bug b -> Some b.b_key | _ -> None)
             r.J.events)
      in
      let ops =
        List.find_map
          (function J.Op_stats o -> Some o.o_ops | _ -> None)
          r.J.events
      in
      (summary, bug_keys, ops)

let test_jobs_agreement () =
  (* heartbeats are time-based (jobs-dependent), but the order-independent
     aggregates — summary verdicts, bug key set, op stats — must agree
     between jobs=1 and jobs=4 under a Tests budget *)
  Faults.activate_all ();
  Fun.protect ~finally:Faults.deactivate_all (fun () ->
      with_tmp_dir (fun d1 ->
          with_tmp_dir (fun d4 ->
              let run dir jobs =
                Tel.reset ();
                let j = J.create ~path:(J.in_dir dir) () in
                ignore
                  (D.Pfuzz.fuzz ~jobs ~journal:j
                     ~systems:[ D.Systems.oxrt ] ~root_seed:7
                     ~budget:(P.Pool.Tests 30) ());
                J.close j
              in
              run d1 1;
              run d4 4;
              let s1, k1, o1 = journal_aggregates d1
              and s4, k4, o4 = journal_aggregates d4 in
              check "summaries agree" true (s1 = s4 && s1 <> None);
              check "bug key sets agree" true (k1 = k4);
              check "op stats agree" true (o1 = o4 && o1 <> None))))

(* ------------------------------------------------------------------ *)
(* Progress renderer                                                   *)

let test_progress_renders () =
  (* drive the renderer through a full campaign's event stream and check
     the final line mentions the headline figures *)
  let path = Filename.temp_file "nnsmith_progress" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      let p = Progress.create ~out:oc ~interval_ms:0. () in
      List.iter (Progress.observe p) sample_events;
      Progress.finish p;
      close_out oc;
      let ic = open_in path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      check "mentions tests" true
        (String.length s > 0
        &&
        let has sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        has "200 tests" && has "bugs" && has "\n"))

let () =
  Alcotest.run "journal"
    [
      ( "json",
        [
          Alcotest.test_case "event round-trip" `Quick test_roundtrip;
          Alcotest.test_case "budget round-trip" `Quick test_budget_roundtrip;
          Alcotest.test_case "old heartbeat parses" `Quick
            test_old_heartbeat_parses;
        ] );
      ( "writer",
        [
          Alcotest.test_case "write then read" `Quick test_write_read;
          Alcotest.test_case "append continues" `Quick test_append_continues;
          Alcotest.test_case "emit after close" `Quick
            test_emit_after_close_ignored;
          Alcotest.test_case "null journal" `Quick test_null_journal;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "torn tail" `Quick test_torn_tail;
          Alcotest.test_case "torn at every byte" `Quick
            test_torn_tail_every_cut;
          Alcotest.test_case "garbage line" `Quick test_garbage_line;
          Alcotest.test_case "live appender race" `Quick
            test_live_appender_race;
          Alcotest.test_case "repair tail" `Quick test_repair_tail;
        ] );
      ( "domains",
        [
          Alcotest.test_case "two-domain interleave" `Quick
            test_two_domain_interleave;
          Alcotest.test_case "jobs=1 vs jobs=4 aggregates" `Slow
            test_jobs_agreement;
        ] );
      ( "progress",
        [ Alcotest.test_case "renders summary" `Quick test_progress_renders ] );
    ]
