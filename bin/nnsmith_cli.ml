(* The nnsmith command-line interface.

     nnsmith generate --seed 1 --nodes 10 --out models/
     nnsmith fuzz --system oxrt --budget 5 --bugs --report-dir reports/
     nnsmith fuzz --system lotus --tests 200 --jobs 4 --bugs
     nnsmith replay reports/
     nnsmith triage reports/
     nnsmith cov --budget 5 --jobs 2
     nnsmith hunt --budget 5 --jobs 4
     nnsmith stats out.jsonl
     nnsmith ops
     nnsmith bugs *)

open Cmdliner
module Config = Nnsmith_core.Config
module Gen = Nnsmith_core.Gen
module Graph = Nnsmith_ir.Graph
module Search = Nnsmith_grad.Search
module Cov = Nnsmith_coverage.Coverage
module Faults = Nnsmith_faults.Faults
module Tel = Nnsmith_telemetry.Telemetry
module Corpus = Nnsmith_corpus.Corpus
module Pool = Nnsmith_parallel.Pool
module Journal = Nnsmith_journal.Journal
module Progress = Nnsmith_journal.Progress
module Dashboard = Nnsmith_dashboard.Dashboard
module Fleet = Nnsmith_fleet.Fleet
module Flock = Nnsmith_fleet.Flock
module D = Nnsmith_difftest

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ---- generate ----------------------------------------------------- *)

(* ---- solver-cache escape hatch ------------------------------------ *)

let apply_no_cache no_cache =
  Nnsmith_smt.Solver.set_cache_enabled (not no_cache)

let no_cache_t =
  Arg.(
    value
    & flag
    & info [ "no-solver-cache" ]
        ~doc:
          "Disable the solver's solve-result caches (results are \
           bit-identical either way; this only trades speed for memory — \
           useful for benchmarking and debugging).")

(* ---- execution-plan escape hatch ---------------------------------- *)

let apply_no_plan no_plan = Nnsmith_exec.Plan.set_enabled (not no_plan)

let no_plan_t =
  Arg.(
    value
    & flag
    & info [ "no-exec-plan" ]
        ~doc:
          "Disable the compiled per-graph execution plans and run the \
           gradient input search and the reference oracle through the plain \
           interpreter (results are bit-identical either way; useful for A/B \
           benchmarking and debugging).")

(* ---- pre-screening escape hatch and cohort pool size -------------- *)

let apply_no_prescreen no_prescreen =
  Nnsmith_smt.Solver.set_prescreen_enabled (not no_prescreen)

let no_prescreen_t =
  Arg.(
    value
    & flag
    & info [ "no-prescreen" ]
        ~doc:
          "Disable interval constraint pre-screening and send every \
           candidate-operator feasibility query to the solver (results are \
           bit-identical either way; useful for A/B benchmarking and \
           debugging).")

let cohort_size_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "cohort-size" ] ~docv:"N"
        ~doc:
          "Number of execution plans kept per worker in the shared cohort \
           pool (default 4).  Cohort members share one buffer arena; \
           results are bit-identical for any size >= 1.")

(* ---- generate ----------------------------------------------------- *)

let generate seed nodes count search out no_cache no_plan cohort_size
    no_prescreen =
  apply_no_cache no_cache;
  apply_no_plan no_plan;
  Option.iter Nnsmith_exec.Plan.set_cohort_size cohort_size;
  apply_no_prescreen no_prescreen;
  let failures = ref 0 in
  Option.iter mkdir_p out;
  for k = 0 to count - 1 do
    match Gen.generate_with_stats { Config.default with seed = seed + k; max_nodes = nodes } with
    | exception Gen.Gen_failure m ->
        incr failures;
        Printf.eprintf "generation failed (seed %d): %s\n%!" (seed + k) m
    | g, stats ->
        Printf.printf "# seed %d: %d nodes, %.1f ms\n%s\n" (seed + k)
          stats.nodes_total stats.gen_ms (Graph.to_string g);
        (match out with
        | Some dir ->
            let path =
              Filename.concat dir (Printf.sprintf "model-%d.nns" (seed + k))
            in
            Nnsmith_ir.Serial.save path g;
            Printf.printf "# saved to %s\n" path
        | None -> ());
        if search then begin
          let rng = Random.State.make [| seed + k |] in
          let o = Search.search ~budget_ms:64. ~method_:Search.Gradient rng g in
          Printf.printf "# input search: %s (%d iterations, %.2f ms)\n"
            (if o.binding <> None then "ok" else "failed")
            o.iterations o.elapsed_ms
        end;
        print_newline ()
  done;
  if !failures = count then begin
    Printf.eprintf "all %d generation attempts failed\n%!" count;
    1
  end
  else 0

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let nodes_t =
  Arg.(value & opt int 10 & info [ "nodes" ] ~docv:"N" ~doc:"Operators per model.")

let count_t =
  Arg.(value & opt int 1 & info [ "count" ] ~docv:"N" ~doc:"Number of models.")

let search_t =
  Arg.(value & flag & info [ "search" ] ~doc:"Also run the gradient input search.")

let gen_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:"Also save each model to $(docv)/model-<seed>.nns (corpus seeds).")

let generate_cmd =
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate valid random models and print them")
    Term.(
      const generate $ seed_t $ nodes_t $ count_t $ search_t $ gen_out_t
      $ no_cache_t $ no_plan_t $ cohort_size_t $ no_prescreen_t)

(* ---- fuzz --------------------------------------------------------- *)

let system_of_name = function
  | "oxrt" -> Some D.Systems.oxrt
  | "lotus" -> Some D.Systems.lotus
  | "trt" -> Some D.Systems.trt
  | _ -> None

(* Returns an exit code: losing the run's report deserves more than a
   cmdliner "internal error" dump. *)
let write_telemetry = function
  | None -> 0
  | Some path -> (
      try
        Tel.append_jsonl path (Tel.snapshot ());
        Printf.printf "telemetry appended to %s\n" path;
        0
      with Sys_error m ->
        Printf.eprintf "cannot write telemetry: %s\n%!" m;
        1)

let budget_of ~budget_s = function
  | Some n -> Pool.Tests n
  | None -> Pool.Time_ms (budget_s *. 1000.)

(* ---- campaign journal / live progress ----------------------------- *)

(* One writer per invocation, created before the campaign and closed
   after it (even on exceptions).  [--progress] hangs the live renderer
   off the journal's observer hook, so every figure on the terminal comes
   from an event already durably on disk; with [--progress] alone the
   journal is observer-only (no file). *)
let with_journal ~journal_dir ~progress k =
  if journal_dir = None && not progress then k None
  else begin
    let prog = if progress then Some (Progress.create ()) else None in
    let observer = Option.map (fun p ev -> Progress.observe p ev) prog in
    let path = Option.map Journal.in_dir journal_dir in
    let journal = Journal.create ?observer ?path () in
    let finish () =
      Journal.close journal;
      Option.iter Progress.finish prog;
      Option.iter
        (fun p ->
          Printf.printf "journal: %s (%d event(s))\n" p
            (Journal.events_written journal))
        (Journal.path journal)
    in
    match k (Some journal) with
    | code ->
        finish ();
        code
    | exception e ->
        finish ();
        raise e
  end

(* --journal DIR also defaults --report-dir to DIR, so
   `nnsmith fuzz --journal d && nnsmith dashboard d` shows a full triage
   table without extra flags. *)
let default_report_dir report_dir journal_dir =
  match report_dir with Some _ -> report_dir | None -> journal_dir

(* Campaign directories are single-writer (append-only corpus index and
   journal), so a second concurrent campaign on the same directory must
   fail fast instead of interleaving writes.  Commands that write campaign
   state take the directory's advisory lock first. *)
let with_campaign_lock ~dir k =
  match dir with
  | None -> k ()
  | Some d -> (
      match Flock.acquire d with
      | Error m ->
          Printf.eprintf "%s\n" m;
          1
      | Ok lock -> Fun.protect ~finally:(fun () -> Flock.release lock) k)

let first_some a b = match a with Some _ -> a | None -> b

let journal_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:
          "Append the campaign event journal to $(docv)/journal.jsonl \
           (crash-safe JSONL; render it with `nnsmith dashboard $(docv)`). \
           Also defaults $(b,--report-dir) to $(docv).")

let progress_t =
  Arg.(
    value
    & flag
    & info [ "progress" ]
        ~doc:
          "Render a live one-line status (tests/sec, verdicts, bugs, \
           coverage, solver-cache hit rate, ETA) on stderr, derived from \
           the journal event stream.")

let print_parallel_result ?(triggered = false) (r : D.Pfuzz.result) =
  let s = r.r_stats in
  Printf.printf "jobs=%d tests=%d (%.1f tests/s, %.0f ms)\n" s.st_jobs
    s.st_tests s.st_tests_per_sec s.st_elapsed_ms;
  if s.st_jobs > 1 then
    List.iter
      (fun (w : Pool.worker_report) ->
        Printf.printf "  worker %d: %d tests, %d failure(s), %.0f ms%s\n"
          w.wr_worker w.wr_tests w.wr_failures w.wr_elapsed_ms
          (if w.wr_dropped > 0 then
             Printf.sprintf ", %d journal event(s) dropped" w.wr_dropped
           else ""))
      s.st_workers;
  List.iter (fun (k, n) -> Printf.printf "  %-12s %d\n" k n) r.r_verdicts;
  Printf.printf "unique failures: %d\n" (List.length r.r_failure_keys);
  List.iter (fun (k, n) -> Printf.printf "  %4dx %s\n" n k) r.r_crashes;
  if triggered then begin
    Printf.printf "seeded defects triggered: %d\n" (List.length r.r_triggered);
    List.iter (fun (id, n) -> Printf.printf "  %4dx %s\n" n id) r.r_triggered
  end

let print_corpus_line report_dir (r : D.Pfuzz.result) =
  Option.iter
    (fun dir ->
      Printf.printf
        "report corpus %s: %d new case(s), %d duplicate(s) suppressed\n" dir
        r.r_saved r.r_dups)
    report_dir

let fuzz system_name budget_s tests jobs bugs seed telemetry report_dir
    journal_dir progress no_cache no_plan cohort_size no_prescreen =
  apply_no_cache no_cache;
  apply_no_plan no_plan;
  Option.iter Nnsmith_exec.Plan.set_cohort_size cohort_size;
  apply_no_prescreen no_prescreen;
  match system_of_name system_name with
  | None ->
      Printf.eprintf "unknown system %s (oxrt | lotus | trt)\n" system_name;
      1
  | Some system ->
      if bugs then Faults.activate_all () else Faults.deactivate_all ();
      Tel.reset ();
      let report_dir = default_report_dir report_dir journal_dir in
      with_campaign_lock ~dir:(first_some journal_dir report_dir) (fun () ->
          with_journal ~journal_dir ~progress (fun journal ->
              let r =
                D.Pfuzz.fuzz ~jobs ?journal ?report_dir ~systems:[ system ]
                  ~root_seed:seed
                  ~budget:(budget_of ~budget_s tests)
                  ()
              in
              Printf.printf "fuzzed %s: " system.s_name;
              print_parallel_result r;
              print_corpus_line report_dir r;
              write_telemetry telemetry))

let system_t =
  Arg.(value & opt string "oxrt" & info [ "system" ] ~docv:"SYS" ~doc:"oxrt | lotus | trt.")

let budget_t =
  Arg.(value & opt float 5. & info [ "budget" ] ~docv:"SECONDS" ~doc:"Time budget.")

let bugs_t =
  Arg.(value & flag & info [ "bugs" ] ~doc:"Activate the seeded defects.")

let jobs_t =
  Arg.(
    value
    & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains.  1 runs inline; with $(b,--tests), the workload \
           is identical for every $(docv).")

let tests_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "tests" ] ~docv:"N"
        ~doc:
          "Run exactly $(docv) tests instead of a time budget \
           (jobs-independent, deterministic workload).")

let telemetry_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:"Append a JSONL telemetry snapshot to $(docv) when done.")

let report_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "report-dir" ] ~docv:"DIR"
        ~doc:
          "Save every crash and semantic mismatch to the persistent corpus \
           in $(docv) (minimized, deduplicated across runs).")

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Differentially fuzz one compiler")
    Term.(
      const fuzz $ system_t $ budget_t $ tests_t $ jobs_t $ bugs_t $ seed_t
      $ telemetry_t $ report_dir_t $ journal_t $ progress_t $ no_cache_t
      $ no_plan_t $ cohort_size_t $ no_prescreen_t)

(* ---- replay / triage ----------------------------------------------- *)

let corpus_dir_t =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Bug-report corpus directory.")

let with_corpus dir k =
  match Corpus.open_ dir with
  | exception Corpus.Corpus_error m ->
      Printf.eprintf "cannot open corpus %s: %s\n" dir m;
      1
  | corpus ->
      if Corpus.size corpus = 0 then begin
        Printf.eprintf "corpus %s holds no saved cases\n" dir;
        1
      end
      else k corpus

let replay dir =
  with_corpus dir (fun corpus ->
      let outcomes = D.Report.replay corpus in
      let drifted = List.filter (fun o -> o.D.Report.rp_drift) outcomes in
      List.iter
        (fun (o : D.Report.outcome) ->
          Printf.printf "%-32s %-9s -> %-9s %s\n" o.rp_case o.rp_expected_kind
            o.rp_got_kind
            (if o.rp_drift then "DRIFT " ^ o.rp_note else "ok"))
        outcomes;
      Printf.printf "replayed %d case(s): %d reproduced, %d drifted\n"
        (List.length outcomes)
        (List.length outcomes - List.length drifted)
        (List.length drifted);
      if drifted = [] then 0 else 1)

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-run every saved corpus case and report verdict drift")
    Term.(const replay $ corpus_dir_t)

let triage dir =
  with_corpus dir (fun corpus ->
      let rows = Corpus.triage corpus in
      Printf.printf "%5s  %-6s %-9s %5s  %5s %5s  %-24s %s\n" "count" "system"
        "verdict" "nodes" "first" "last" "case" "dedup-key / bugs";
      List.iter
        (fun (r : Corpus.triage_row) ->
          Printf.printf "%5d  %-6s %-9s %5d  %5d %5d  %-24s %s%s\n" r.tr_count
            r.tr_system r.tr_verdict r.tr_nodes r.tr_first r.tr_last
            r.tr_case_id r.tr_key
            (match r.tr_bugs with
            | [] -> ""
            | bugs -> "  [" ^ String.concat ", " bugs ^ "]"))
        rows;
      Printf.printf "%d distinct failure(s), %d case(s) on disk\n"
        (List.length rows) (Corpus.size corpus);
      0)

let triage_cmd =
  Cmd.v
    (Cmd.info "triage"
       ~doc:"Summarize a bug-report corpus: dedup-key, hit count, system")
    Term.(const triage $ corpus_dir_t)

(* ---- cov ---------------------------------------------------------- *)

let cov budget_s tests jobs seed telemetry journal_dir progress no_cache
    no_plan cohort_size no_prescreen =
  apply_no_cache no_cache;
  apply_no_plan no_plan;
  Option.iter Nnsmith_exec.Plan.set_cohort_size cohort_size;
  apply_no_prescreen no_prescreen;
  Faults.deactivate_all ();
  let write_failed = ref false in
  let generators =
    [
      ("NNSmith", fun s -> D.Generators.nnsmith ~seed:s ());
      ("GraphFuzzer", fun s -> D.Generators.graphfuzzer ~seed:s ());
      ("LEMON", fun s -> D.Generators.lemon ~seed:s ());
    ]
  in
  with_campaign_lock ~dir:journal_dir @@ fun () ->
  with_journal ~journal_dir ~progress (fun journal ->
      List.iter
        (fun (system : D.Systems.t) ->
          List.iter
            (fun (name, gen_of_seed) ->
              (* each campaign resets telemetry: one JSONL line per campaign *)
              let fuzzer, n_tests, final =
                if jobs = 1 && tests = None then
                  let r =
                    D.Campaign.coverage ?journal
                      ~budget_ms:(budget_s *. 1000.) ~system
                      (gen_of_seed seed)
                  in
                  (r.fuzzer, r.tests, r.final)
                else
                  let r =
                    D.Pfuzz.coverage ~jobs ?journal ~generator:name ~system
                      ~root_seed:seed
                      ~budget:(budget_of ~budget_s tests)
                      ~gen_of_seed ()
                  in
                  (name, r.r_stats.st_tests, r.r_coverage)
              in
              Printf.printf
                "%-6s %-12s tests=%-5d total=%-5d pass-only=%-5d\n%!"
                system.s_name fuzzer n_tests (Cov.count final)
                (Cov.count_pass final);
              match telemetry with
              | Some path -> (
                  try Tel.append_jsonl path (Tel.snapshot ())
                  with Sys_error m ->
                    if not !write_failed then
                      Printf.eprintf "cannot write telemetry: %s\n%!" m;
                    write_failed := true)
              | None -> ())
            generators)
        D.Systems.open_source;
      (match telemetry with
      | Some path when not !write_failed ->
          Printf.printf "telemetry appended to %s\n" path
      | _ -> ());
      if !write_failed then 1 else 0)

let cov_cmd =
  Cmd.v
    (Cmd.info "cov" ~doc:"Coverage comparison of all fuzzers on all systems")
    Term.(
      const cov $ budget_t $ tests_t $ jobs_t $ seed_t $ telemetry_t
      $ journal_t $ progress_t $ no_cache_t $ no_plan_t $ cohort_size_t
      $ no_prescreen_t)

(* ---- hunt --------------------------------------------------------- *)

let hunt budget_s tests jobs seed telemetry report_dir journal_dir progress
    no_cache no_plan cohort_size no_prescreen =
  apply_no_cache no_cache;
  apply_no_plan no_plan;
  Option.iter Nnsmith_exec.Plan.set_cohort_size cohort_size;
  apply_no_prescreen no_prescreen;
  Tel.reset ();
  let report_dir = default_report_dir report_dir journal_dir in
  with_campaign_lock ~dir:(first_some journal_dir report_dir) @@ fun () ->
  with_journal ~journal_dir ~progress (fun journal ->
      let r =
        D.Pfuzz.hunt ~jobs ?journal ?report_dir ~root_seed:seed
          ~budget:(budget_of ~budget_s tests)
          ()
      in
      Printf.printf "seeded-bug hunt: ";
      print_parallel_result ~triggered:true r;
      let tbl = Hashtbl.create 32 in
      List.iter (fun (id, n) -> Hashtbl.replace tbl id n) r.r_triggered;
      List.iter
        (fun (sys, trans, conv, uncls, crash, sem) ->
          Printf.printf
            "  %-9s transformation=%d conversion=%d unclassified=%d \
             (crash=%d, semantic=%d)\n"
            sys trans conv uncls crash sem)
        (D.Bughunt.distribution tbl);
      print_corpus_line report_dir r;
      write_telemetry telemetry)

let hunt_cmd =
  Cmd.v
    (Cmd.info "hunt"
       ~doc:"Hunt the seeded defect catalogue across all systems")
    Term.(
      const hunt $ budget_t $ tests_t $ jobs_t $ seed_t $ telemetry_t
      $ report_dir_t $ journal_t $ progress_t $ no_cache_t $ no_plan_t
      $ cohort_size_t $ no_prescreen_t)

(* ---- fleet -------------------------------------------------------- *)

(* Workers are fresh processes configured only by [Proto.worker_config],
   so the fleet takes none of the in-process engine switches: they would
   reach the supervisor alone and leave every test on the default engine. *)
let fleet dir tests procs hunt bugs seed system_names resume max_nodes
    hb_timeout_s checkpoint_every dashboard_every_s progress =
  Tel.reset ();
  let systems =
    match system_names with
    | [] -> Ok D.Systems.all
    | names ->
        List.fold_left
          (fun acc n ->
            match (acc, system_of_name n) with
            | Ok ss, Some s -> Ok (ss @ [ s ])
            | Ok _, None -> Error n
            | (Error _ as e), _ -> e)
          (Ok []) names
  in
  match systems with
  | Error n ->
      Printf.eprintf "unknown system %s (oxrt | lotus | trt)\n" n;
      1
  | Ok systems -> (
      let faults =
        if hunt || bugs then
          List.map (fun (b : Faults.bug) -> b.b_id) Faults.catalogue
        else []
      in
      let cfg =
        {
          (Fleet.default_config ~dir ~tests) with
          Fleet.fc_kind = (if hunt then Fleet.Hunt else Fleet.Fuzz);
          fc_systems = systems;
          fc_faults = faults;
          fc_root_seed = seed;
          fc_shards = max 1 procs;
          fc_max_nodes = max_nodes;
          fc_heartbeat_timeout_ms = hb_timeout_s *. 1000.;
          fc_checkpoint_every = checkpoint_every;
          fc_dashboard_every_ms =
            (match dashboard_every_s with
            | Some s -> s *. 1000.
            | None -> 0.);
          fc_progress = progress;
        }
      in
      match Fleet.run ~resume cfg with
      | Error m ->
          Printf.eprintf "%s\n" m;
          1
      | Ok s ->
          Printf.printf
            "fleet %s: %d shard(s), %d/%d test(s) applied (%d this session, \
             %.1f tests/s)\n"
            dir s.Fleet.fs_shards s.fs_tests tests s.fs_session_tests
            (float_of_int s.fs_session_tests
            /. Float.max 1e-6 (s.fs_elapsed_ms /. 1000.));
          List.iter (fun (k, n) -> Printf.printf "  %-12s %d\n" k n)
            s.fs_verdicts;
          Printf.printf "unique failures: %d\n"
            (List.length s.fs_failure_keys);
          List.iter (fun (k, n) -> Printf.printf "  %4dx %s\n" n k)
            s.fs_crashes;
          Printf.printf
            "corpus: %d new case(s), %d duplicate(s) suppressed\n" s.fs_saved
            s.fs_dups;
          if s.fs_worker_crashes > 0 then
            Printf.printf
              "worker crashes: %d (filed in the corpus; %d restart(s))\n"
              s.fs_worker_crashes s.fs_restarts;
          Printf.printf "coverage: %d site(s), %d pass-only\n" s.fs_cov_total
            s.fs_cov_pass;
          if s.fs_complete then 0
          else begin
            Printf.printf
              "campaign interrupted — continue with `nnsmith fleet %s \
               --resume`\n"
              dir;
            1
          end)

let fleet_dir_t =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR"
        ~doc:
          "Campaign directory: corpus, journal.jsonl, checkpoint.json \
           (created if missing).")

let fleet_tests_t =
  Arg.(
    value
    & opt int 100
    & info [ "tests" ] ~docv:"N"
        ~doc:
          "Global test budget (indices 0..N-1; identical failure set for \
           any $(b,--procs)).")

let procs_t =
  Arg.(
    value
    & opt int (Pool.default_jobs ())
    & info [ "procs"; "p" ] ~docv:"N"
        ~doc:"Worker OS processes (shards of the index space).")

let fleet_hunt_t =
  Arg.(
    value
    & flag
    & info [ "hunt" ]
        ~doc:"Hunt the seeded defect catalogue instead of plain fuzzing.")

let fleet_systems_t =
  Arg.(
    value
    & opt_all string []
    & info [ "system" ] ~docv:"SYS"
        ~doc:"oxrt | lotus | trt (repeatable; default: all three).")

let resume_t =
  Arg.(
    value
    & flag
    & info [ "resume" ]
        ~doc:
          "Continue from $(i,DIR)'s checkpoint after a kill; the finished \
           campaign is byte-identical to an uninterrupted run.")

let max_nodes_t =
  Arg.(
    value
    & opt int 10
    & info [ "max-nodes" ] ~docv:"N" ~doc:"Operator nodes per model.")

let hb_timeout_t =
  Arg.(
    value
    & opt float 30.
    & info [ "heartbeat-timeout" ] ~docv:"SECS"
        ~doc:
          "Kill and restart a worker that has not framed an outcome for \
           this long.")

let checkpoint_every_t =
  Arg.(
    value
    & opt int 25
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Applied tests between checkpoints.")

let dashboard_every_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "dashboard-every" ] ~docv:"SECS"
        ~doc:
          "Regenerate $(i,DIR)/dashboard.html this often while the \
           campaign runs (with a matching meta-refresh tag).")

let fleet_cmd =
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Crash-tolerant multi-process campaign: shard the index-pure \
          test space across worker processes with a checkpointed, \
          resumable work queue")
    Term.(
      const fleet $ fleet_dir_t $ fleet_tests_t $ procs_t $ fleet_hunt_t
      $ bugs_t $ seed_t $ fleet_systems_t $ resume_t $ max_nodes_t
      $ hb_timeout_t $ checkpoint_every_t $ dashboard_every_t $ progress_t)

(* ---- journal tail ------------------------------------------------- *)

let journal_tail dir n follow interval_s =
  let path =
    if Filename.check_suffix dir ".jsonl" then dir else Journal.in_dir dir
  in
  let print_from skip (r : Journal.read_result) =
    List.iteri
      (fun i ev ->
        if i >= skip then print_endline (Journal.summary_line ev))
      r.Journal.events;
    List.length r.Journal.events
  in
  match Journal.read_file path with
  | Error m ->
      Printf.eprintf "cannot read %s: %s\n" path m;
      1
  | Ok r ->
      let len = List.length r.Journal.events in
      let printed = ref (print_from (max 0 (len - n)) r) in
      if r.Journal.torn_tail then
        Printf.eprintf "note: final line torn (writer killed mid-write)\n";
      flush stdout;
      if not follow then 0
      else begin
        (* poll the file; the torn-tail-tolerant reader means a live
           appender can never make us error or print a partial event *)
        while true do
          Unix.sleepf interval_s;
          (match Journal.read_file path with
          | Error _ -> ()
          | Ok r ->
              printed := print_from !printed r;
              flush stdout)
        done;
        0
      end

let tail_lines_t =
  Arg.(
    value
    & opt int 10
    & info [ "n"; "lines" ] ~docv:"N" ~doc:"Print the last $(docv) events.")

let follow_t =
  Arg.(
    value
    & flag
    & info [ "follow"; "f" ]
        ~doc:"Keep polling for new events (like `tail -f`).")

let tail_interval_t =
  Arg.(
    value
    & opt float 0.5
    & info [ "interval" ] ~docv:"SECS"
        ~doc:"Poll interval with $(b,--follow).")

let journal_tail_cmd =
  Cmd.v
    (Cmd.info "tail"
       ~doc:"Print the last journal events as one-line summaries")
    Term.(
      const journal_tail $ fleet_dir_t $ tail_lines_t $ follow_t
      $ tail_interval_t)

let journal_cmd =
  Cmd.group
    (Cmd.info "journal" ~doc:"Inspect a campaign's event journal")
    [ journal_tail_cmd ]

(* ---- stats -------------------------------------------------------- *)

let stats file =
  (* same reader as the dashboard, so the two can never disagree *)
  match Tel.read_jsonl file with
  | Error m ->
      Printf.eprintf "cannot open %s: %s\n" file m;
      1
  | Ok { Tel.jr_snapshots; jr_errors } ->
      List.iteri
        (fun i s ->
          Printf.printf "-- snapshot %d --\n%s\n" (i + 1) (Tel.render_table s))
        jr_snapshots;
      List.iter
        (fun (line, m) ->
          Printf.eprintf "line %d: malformed telemetry: %s\n" line m)
        jr_errors;
      if jr_snapshots = [] then begin
        Printf.eprintf "%s contains no telemetry snapshots\n" file;
        1
      end
      else if jr_errors <> [] then 1
      else 0

let stats_file_t =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"JSONL telemetry report to render.")

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Render a JSONL telemetry report as human-readable tables")
    Term.(const stats $ stats_file_t)

(* ---- dashboard ---------------------------------------------------- *)

let dashboard dir bench_dir out refresh =
  let html = Dashboard.of_dir ~bench_dir ?refresh_secs:refresh dir in
  let out =
    match out with Some p -> p | None -> Filename.concat dir "dashboard.html"
  in
  match
    let oc = open_out out in
    output_string oc html;
    close_out oc
  with
  | () ->
      Printf.printf "dashboard written to %s (%d bytes)\n" out
        (String.length html);
      0
  | exception Sys_error m ->
      Printf.eprintf "cannot write dashboard: %s\n" m;
      1

let dashboard_dir_t =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR"
        ~doc:
          "Campaign directory (journal.jsonl, index.jsonl, \
           telemetry.jsonl — all optional).")

let bench_dir_t =
  Arg.(
    value
    & opt string "."
    & info [ "bench-dir" ] ~docv:"DIR"
        ~doc:
          "Where to look for bench/history.jsonl and BENCH_*.json \
           (default: the current directory).")

let dashboard_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the HTML here instead of $(i,DIR)/dashboard.html.")

let dashboard_refresh_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "refresh" ] ~docv:"SECS"
        ~doc:
          "Embed a meta-refresh tag so a browser left open on the page \
           re-reads it every $(docv) seconds — pairs with regenerating it \
           in a loop (or `nnsmith fleet --dashboard-every`).")

let dashboard_cmd =
  Cmd.v
    (Cmd.info "dashboard"
       ~doc:
         "Render a campaign directory as one self-contained static HTML \
          page (inline CSS + SVG, no JavaScript)")
    Term.(
      const dashboard $ dashboard_dir_t $ bench_dir_t $ dashboard_out_t
      $ dashboard_refresh_t)

(* ---- reduce ------------------------------------------------------- *)

let reduce bug_id budget_s seed out_path =
  match Faults.find bug_id with
  | None ->
      Printf.eprintf "unknown bug id %s (see `nnsmith bugs`)\n" bug_id;
      1
  | Some bug -> (
      let system =
        match bug.system with
        | "OxRT" | "Exporter" -> D.Systems.oxrt
        | "Lotus" -> D.Systems.lotus
        | "TRT" -> D.Systems.trt
        | _ -> D.Systems.oxrt
      in
      let rng = Random.State.make [| seed |] in
      let predicate = D.Reduce.still_triggers system ~bug_id rng in
      (* fuzz until a model triggers the bug *)
      let gen = D.Generators.nnsmith ~seed () in
      let start = Tel.now_ms () in
      let rec find () =
        if Tel.now_ms () -. start > budget_s *. 1000. then None
        else
          match gen.next () with
          | Some g when predicate g -> Some g
          | _ -> find ()
      in
      match find () with
      | None ->
          Printf.printf "no model triggered %s within %.0f s\n" bug_id budget_s;
          1
      | Some g ->
          Printf.printf "found a %d-node reproducer; reducing...\n%!"
            (Graph.size g);
          let reduced, stats = D.Reduce.minimize ~predicate g in
          Printf.printf
            "reduced %d -> %d nodes (%d/%d mutations accepted):\n%s\n"
            stats.initial_size stats.final_size stats.accepted stats.attempts
            (Graph.to_string reduced);
          (match out_path with
          | Some path ->
              Nnsmith_ir.Serial.save path reduced;
              Printf.printf "saved to %s\n" path
          | None -> ());
          0)

let bug_id_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "bug" ] ~docv:"ID" ~doc:"Seeded bug id (see `nnsmith bugs`).")

let out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Save the reduced model here.")

let reduce_cmd =
  Cmd.v
    (Cmd.info "reduce"
       ~doc:"Find a model triggering a seeded bug and minimize it")
    Term.(const reduce $ bug_id_t $ budget_t $ seed_t $ out_t)

(* ---- ops / bugs --------------------------------------------------- *)

let ops () =
  List.iter print_endline (Nnsmith_ops.Registry.names ());
  0

let ops_cmd =
  Cmd.v (Cmd.info "ops" ~doc:"List registered operator specifications")
    Term.(const ops $ const ())

let bugs () =
  List.iter
    (fun (b : Faults.bug) ->
      Printf.printf "%-36s %-9s %-13s %-8s %s\n" b.b_id b.system
        (Faults.category_name b.category)
        (Faults.effect_name b.effect)
        b.description)
    Faults.catalogue;
  0

let bugs_cmd =
  Cmd.v (Cmd.info "bugs" ~doc:"List the seeded bug catalogue")
    Term.(const bugs $ const ())

let () =
  (* Hidden worker mode: the fleet supervisor respawns this very binary
     with this argv marker; the worker config rides the environment. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "fleet-worker" then
    Fleet.worker_main ();
  let info =
    Cmd.info "nnsmith" ~version:"1.0.0"
      ~doc:"Generate diverse and valid test cases for deep-learning compilers"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            generate_cmd;
            fuzz_cmd;
            replay_cmd;
            triage_cmd;
            cov_cmd;
            hunt_cmd;
            fleet_cmd;
            journal_cmd;
            stats_cmd;
            dashboard_cmd;
            reduce_cmd;
            ops_cmd;
            bugs_cmd;
          ]))
