(** The campaign engine: every fuzzing loop — CLI [fuzz]/[cov]/[hunt],
    the paper figures, the tests — runs here, sharded over
    {!Nnsmith_parallel.Pool} worker domains.

    The NNSmith pipeline here is {e index-pure}: test [i] is generated
    from [Splitmix.derive ~root ~index:i] alone (model seed and
    input-search rng both), so under a [Tests n] budget the same root
    seed produces the same failures for any [--jobs] value.  Baseline
    generators (GraphFuzzer, LEMON) are stateful streams; parallel runs
    give each worker an independently seeded stream instead, which is
    reproducible per (root, jobs) but not jobs-independent.  Every input
    search is iteration-capped, so a [Time_ms] budget may end a campaign
    early but never changes what a test computes.

    A test produces one {!outcome}; the {!Ledger} folds outcomes into the
    campaign's tallies and corpus in test-index order, for the domain pool
    here and for the multi-process fleet alike. *)

module Graph = Nnsmith_ir.Graph
module Op = Nnsmith_ir.Op
module Config = Nnsmith_core.Config
module Gen = Nnsmith_core.Gen
module Cov = Nnsmith_coverage.Coverage
module Tel = Nnsmith_telemetry.Telemetry
module Pool = Nnsmith_parallel.Pool
module Splitmix = Nnsmith_parallel.Splitmix
module Corpus = Nnsmith_corpus.Corpus
module Journal = Nnsmith_journal.Journal

let add_count tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let incr_count tbl key = add_count tbl key 1

let sorted_counts tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(** A failure observed by a worker, shipped to the corpus-writer domain. *)
type failure = {
  f_system : Systems.t;
  f_generator : string;
  f_seed : int;
  f_export_bugs : string list;
  f_graph : Graph.t;
  f_binding : Nnsmith_ops.Runner.binding;
  f_verdict : Harness.verdict;
}

(* Verdict tallies: one test's (its outcome) or the ledger's campaign
   totals. *)
type tally = {
  verdicts : (string, int) Hashtbl.t;  (* pass/crash/semantic/skipped/gen_fail *)
  crashes : (string, int) Hashtbl.t;  (* crash dedup-key -> count *)
  keys : (string, unit) Hashtbl.t;  (* failure dedup-keys (crash + semantic) *)
  triggered : (string, int) Hashtbl.t;  (* seeded bug id -> hit count *)
  ops : (string, (string, int) Hashtbl.t) Hashtbl.t;
      (* op kind -> verdict kind -> count (one per op occurrence per test) *)
}

let fresh_tally () =
  {
    verdicts = Hashtbl.create 8;
    crashes = Hashtbl.create 16;
    keys = Hashtbl.create 16;
    triggered = Hashtbl.create 16;
    ops = Hashtbl.create 32;
  }

(* The verdict-kind counts of op kind [op]. *)
let ops_row t op =
  match Hashtbl.find_opt t.ops op with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 4 in
      Hashtbl.replace t.ops op h;
      h

let record_ops t g verdict_kind =
  List.iter
    (fun (n : Graph.node) ->
      match n.op with
      | Op.Leaf _ -> ()
      | op -> incr_count (ops_row t (Op.name op)) verdict_kind)
    (Graph.nodes g)

(* One point of a worker's coverage curve. *)
type point = {
  p_tests : int;
  p_total : int;
  p_pass : int;
  p_ms : float;  (* display only *)
}

(* A worker's model source: test [seed]'s model and the name of the
   generator that made it, or [None] when generation failed. *)
type source = seed:int -> (string * Graph.t) option

(* The index-pure NNSmith generator: the model is a function of [seed]. *)
let index_pure ~generator ~max_nodes ~binning : source =
 fun ~seed ->
  match Gen.generate { Config.default with seed; max_nodes; binning } with
  | g -> Some (generator, g)
  | exception _ -> None

(* A stateful generator stream: [seed] only seeds the input search. *)
let of_stream (gen : Generators.t) : source =
 fun ~seed:_ -> Option.map (fun g -> (gen.g_name, g)) (gen.next ())

(* Worker-side campaign state: the model source, the verdict counts its
   heartbeats report, the coverage curve and the heartbeat clock. *)
type wstate = {
  w_id : int;
  w_source : source;
  w_verdicts : (string, int) Hashtbl.t;
  w_start_ms : float;
  mutable w_curve : point list;  (* newest first *)
  mutable w_tests : int;
  mutable w_seq : int;
  mutable w_next_hb : float;
}

let fresh_wstate ~source worker =
  {
    w_id = worker;
    w_source = source;
    w_verdicts = Hashtbl.create 8;
    w_start_ms = Tel.now_ms ();
    w_curve = [];
    w_tests = 0;
    w_seq = 0;
    w_next_hb = neg_infinity;
  }

let record_point ws =
  let snap = Cov.snapshot () in
  ws.w_curve <-
    {
      p_tests = ws.w_tests;
      p_total = Cov.count snap;
      p_pass = Cov.count_pass snap;
      p_ms = Tel.now_ms () -. ws.w_start_ms;
    }
    :: ws.w_curve

let heartbeat_interval_ms = 250.

(* Called once per test on the worker domain.  When journaling, rate-limit
   a heartbeat event carrying this worker's cumulative counters plus its
   domain-local coverage. *)
let maybe_heartbeat ~journaling ws =
  if not journaling then None
  else
    let now = Tel.now_ms () in
    if now < ws.w_next_hb then None
    else begin
      ws.w_next_hb <- now +. heartbeat_interval_ms;
      ws.w_seq <- ws.w_seq + 1;
      let snap = Cov.snapshot () in
      Some
        (Journal.Heartbeat
           {
             h_worker = ws.w_id;
             h_seq = ws.w_seq;
             h_at_ms = now;
             h_tests = ws.w_tests;
             h_verdicts = sorted_counts ws.w_verdicts;
             h_cov_total = Cov.count snap;
             h_cov_pass = Cov.count_pass snap;
             h_cov_universe = Cov.universe_size ();
           })
    end

type result = {
  r_stats : Pool.stats;
  r_verdicts : (string * int) list;
  r_crashes : (string * int) list;
  r_failure_keys : string list;  (** sorted, unique — jobs-independent *)
  r_triggered : (string * int) list;  (** seeded bug id -> hits (hunt only) *)
  r_ops : (string * (string * int) list) list;
      (** op kind -> verdict kind -> count, both levels sorted *)
  r_saved : int;  (** new corpus cases (0 without [report_dir]) *)
  r_dups : int;  (** corpus duplicates (0 without [report_dir]) *)
  r_coverage : Cov.snapshot;  (** union over workers *)
  r_curves : point list list;  (** per worker, oldest first ([coverage]) *)
}

let verdict_name = function
  | Harness.Pass -> "pass"
  | Harness.Skipped _ -> "skipped"
  | Harness.Semantic _ -> "semantic"
  | Harness.Crash _ -> "crash"

(* Campaign-lifecycle journal records, emitted on the calling domain. *)

let pool_budget_to_journal = function
  | Pool.Tests n -> Journal.B_tests n
  | Pool.Time_ms m -> Journal.B_time_ms m

let journal_start ?journal ~kind ~systems ~generator ~root_seed ~jobs ~budget
    () =
  Option.iter
    (fun j ->
      Journal.emit j
        (Journal.Start
           {
             s_at_ms = Journal.now_ms ();
             s_kind = kind;
             s_systems = List.map (fun s -> s.Systems.s_name) systems;
             s_generator = generator;
             s_root_seed = root_seed;
             s_jobs = jobs;
             s_budget = pool_budget_to_journal budget;
           }))
    journal

let resolved_jobs jobs =
  max 1 (match jobs with Some j -> j | None -> Pool.default_jobs ())

let record_verdict t (system : Systems.t) ~generator ~seed ~export_bugs g binding
    emit = function
  | Harness.Pass ->
      incr_count t.verdicts "pass";
      record_ops t g "pass"
  | Harness.Skipped _ ->
      incr_count t.verdicts "skipped";
      record_ops t g "skipped"
  | Harness.Semantic _ as v ->
      incr_count t.verdicts "semantic";
      record_ops t g "semantic";
      (match Report.failure_key system v with
      | Some k -> Hashtbl.replace t.keys k ()
      | None -> ());
      emit
        {
          f_system = system;
          f_generator = generator;
          f_seed = seed;
          f_export_bugs = export_bugs;
          f_graph = g;
          f_binding = binding;
          f_verdict = v;
        }
  | Harness.Crash m as v ->
      incr_count t.verdicts "crash";
      record_ops t g "crash";
      let key = Harness.dedup_key m in
      incr_count t.crashes key;
      Hashtbl.replace t.keys key ();
      (match Harness.bug_id_of_message m with
      | Some id -> incr_count t.triggered id
      | None -> ());
      emit
        {
          f_system = system;
          f_generator = generator;
          f_seed = seed;
          f_export_bugs = export_bugs;
          f_graph = g;
          f_binding = binding;
          f_verdict = v;
        }

(* One test: take the model from [source], search its inputs (iteration-
   capped, so the binding does not depend on machine load), export it and
   difftest each system.  Everything but a stream's state derives from
   [seed].  With [attribute_semantic], semantic mismatches are attributed
   to seeded defects by isolation re-runs (the hunt-mode discipline of
   {!Bughunt}). *)
let run_test ?(attribute_semantic = false) t (source : source) ~systems
    ~seed =
  match source ~seed with
  | None ->
      incr_count t.verdicts "gen_fail";
      []
  | Some (generator, g) ->
      let out = ref [] in
      let emit f = out := f :: !out in
      (match
         let rng = Random.State.make [| seed |] in
         let binding = Inputs.find_binding rng g in
         let exported, export_bugs = Exporter.export g in
         (binding, exported, export_bugs)
       with
      | exception _ -> incr_count t.verdicts "gen_fail"
      | binding, exported, export_bugs ->
          List.iter (fun id -> incr_count t.triggered id) export_bugs;
          List.iter
            (fun system ->
              match Harness.test ~exported system g binding with
              | v ->
                  record_verdict t system ~generator ~seed ~export_bugs g
                    binding emit v
              | exception _ -> incr_count t.verdicts "error")
            systems);
      let fs = List.rev !out in
      if attribute_semantic then
        List.iter
          (fun f ->
            match f.f_verdict with
            | Harness.Semantic _ ->
                Bughunt.attribute_semantic f.f_system f.f_graph f.f_binding
                  t.triggered
            | _ -> ())
          fs;
      fs

(* ------------------------------------------------------------------ *)
(* Per-index outcome: the serializable result of one test, the one thing
   a campaign test produces.  A pool worker sends it over the channel, a
   fleet worker over its pipe; the {!Ledger} folds it.                  *)

type outcome = {
  o_verdicts : (string * int) list;  (** sorted verdict-kind counts *)
  o_crashes : (string * int) list;  (** crash dedup-key -> count *)
  o_keys : string list;  (** failure dedup-keys, sorted *)
  o_triggered : (string * int) list;  (** seeded bug id -> hits *)
  o_ops : (string * (string * int) list) list;
  o_failures : failure list;  (** in emission order *)
}

let outcome_of_tally t fs =
  {
    o_verdicts = sorted_counts t.verdicts;
    o_crashes = sorted_counts t.crashes;
    o_keys =
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) t.keys []);
    o_triggered = sorted_counts t.triggered;
    o_ops =
      Hashtbl.fold (fun op inner acc -> (op, sorted_counts inner) :: acc) t.ops
        []
      |> List.sort compare;
    o_failures = fs;
  }

let run_source ?attribute_semantic source ~systems ~seed =
  let t = fresh_tally () in
  let fs = run_test ?attribute_semantic t source ~systems ~seed in
  outcome_of_tally t fs

let run_one ?attribute_semantic ?(generator = "NNSmith") ?(max_nodes = 10)
    ?(binning = true) ~systems ~seed () =
  run_source ?attribute_semantic
    (index_pure ~generator ~max_nodes ~binning)
    ~systems ~seed

(* ------------------------------------------------------------------ *)
(* The ledger: the one place a campaign's outcomes become tallies, corpus
   cases and journal [Bug] events.

   Outcomes are applied in ascending test-index order, not arrival order:
   pool workers and fleet processes deliver them in a schedule-dependent
   interleaving, and arrival-order corpus writes would make index.jsonl
   (and which duplicate arrives first) depend on the schedule.  Buffering
   each outcome until every lower index has been applied replays the
   exact jobs- and shards-independent order.                            *)

module Ledger = struct
  type totals = {
    t_verdicts : (string * int) list;
    t_crashes : (string * int) list;
    t_keys : string list;
    t_triggered : (string * int) list;
    t_ops : (string * (string * int) list) list;
    t_saved : int;
    t_dups : int;
  }

  type 'a t = {
    l_tally : tally;
    l_corpus : Corpus.t option;
    l_journal : Journal.t option;
    l_seen : (string, int) Hashtbl.t;
        (* key -> hits, for [Bug] events when journaling without a corpus *)
    mutable l_saved : int;
    mutable l_dups : int;
    l_buf : (int, outcome * 'a) Hashtbl.t;
    mutable l_next : int;
  }

  let add_outcome t o =
    List.iter (fun (k, n) -> add_count t.verdicts k n) o.o_verdicts;
    List.iter (fun (k, n) -> add_count t.crashes k n) o.o_crashes;
    List.iter (fun k -> Hashtbl.replace t.keys k ()) o.o_keys;
    List.iter (fun (k, n) -> add_count t.triggered k n) o.o_triggered;
    List.iter
      (fun (op, vs) ->
        let row = ops_row t op in
        List.iter (fun (k, n) -> add_count row k n) vs)
      o.o_ops

  let create ?journal ?report_dir ?from () =
    let l =
      {
        l_tally = fresh_tally ();
        l_corpus = Option.map (fun d -> Corpus.open_ ?journal d) report_dir;
        l_journal = journal;
        l_seen = Hashtbl.create 16;
        l_saved = 0;
        l_dups = 0;
        l_buf = Hashtbl.create 64;
        l_next = 0;
      }
    in
    Option.iter
      (fun (next, t) ->
        add_outcome l.l_tally
          {
            o_verdicts = t.t_verdicts;
            o_crashes = t.t_crashes;
            o_keys = t.t_keys;
            o_triggered = t.t_triggered;
            o_ops = t.t_ops;
            o_failures = [];
          };
        l.l_saved <- t.t_saved;
        l.l_dups <- t.t_dups;
        l.l_next <- next)
      from;
    l

  (* Bug journal events originate in the corpus (the authority on
     novelty); when journaling without a corpus, [l_seen] stands in so the
     journal still records first-vs-repeat. *)
  let persist l f =
    match l.l_corpus with
    | Some c -> (
        match
          Report.save_failure c ~system:f.f_system ~generator:f.f_generator
            ~seed:f.f_seed ~export_bugs:f.f_export_bugs f.f_graph f.f_binding
            f.f_verdict
        with
        | `Saved _ -> l.l_saved <- l.l_saved + 1
        | `Duplicate _ -> l.l_dups <- l.l_dups + 1
        | `Not_failure -> ())
    | None -> (
        match (l.l_journal, Report.failure_key f.f_system f.f_verdict) with
        | Some j, Some key ->
            let n = 1 + Option.value ~default:0 (Hashtbl.find_opt l.l_seen key) in
            Hashtbl.replace l.l_seen key n;
            Journal.emit j
              (Journal.Bug
                 {
                   b_at_ms = Journal.now_ms ();
                   b_key = key;
                   b_system = f.f_system.Systems.s_name;
                   b_verdict = verdict_name f.f_verdict;
                   b_case = "";
                   b_nodes = Graph.size f.f_graph;
                   b_count = n;
                   b_new = n = 1;
                   b_reducer = None;
                 })
        | _ -> ())

  let apply_at l i =
    let o, x = Hashtbl.find l.l_buf i in
    Hashtbl.remove l.l_buf i;
    l.l_next <- i + 1;
    add_outcome l.l_tally o;
    List.iter (persist l) o.o_failures;
    x

  let offer l i o x =
    if i >= l.l_next && not (Hashtbl.mem l.l_buf i) then
      Hashtbl.replace l.l_buf i (o, x)

  let apply_next l =
    if Hashtbl.mem l.l_buf l.l_next then Some (apply_at l l.l_next) else None

  let flush l =
    Hashtbl.fold (fun i _ acc -> i :: acc) l.l_buf []
    |> List.sort compare
    |> List.map (apply_at l)

  let applied l = l.l_next

  let totals l =
    let o = outcome_of_tally l.l_tally [] in
    {
      t_verdicts = o.o_verdicts;
      t_crashes = o.o_crashes;
      t_keys = o.o_keys;
      t_triggered = o.o_triggered;
      t_ops = o.o_ops;
      t_saved = l.l_saved;
      t_dups = l.l_dups;
    }

  let journal_finish j ~tests ~tests_per_sec ~coverage t =
    let now = Journal.now_ms () in
    if t.t_ops <> [] then
      Journal.emit j (Journal.Op_stats { o_at_ms = now; o_ops = t.t_ops });
    Journal.emit j
      (Journal.Coverage
         {
           c_at_ms = now;
           c_tests = tests;
           c_total = Cov.count coverage;
           c_pass = Cov.count_pass coverage;
         });
    Journal.emit j
      (Journal.Summary
         {
           f_at_ms = now;
           f_tests = tests;
           f_tests_per_sec = tests_per_sec;
           f_verdicts = t.t_verdicts;
           f_failures = List.length t.t_keys;
           f_saved = t.t_saved;
           f_dups = t.t_dups;
           f_cov_total = Cov.count coverage;
           f_cov_pass = Cov.count_pass coverage;
           f_dropped = 0;
         })
end

(* [fuzz], [coverage] and [hunt] all run through here: journal the start,
   shard the test stream over the pool (each worker drawing its models
   from [gen_of_seed]'s stream, or index-pure NNSmith without one), fold
   each test's outcome through the ledger on the calling domain, then
   journal the result.  With [curve], every test appends a point to its
   worker's coverage curve. *)
let drive ?jobs ?journal ?report_dir ?gen_of_seed ?(max_nodes = 10)
    ?(binning = true) ?attribute_semantic ?(curve = false) ~kind
    ~systems ~generator ~root_seed ~budget () =
  journal_start ?journal ~kind ~systems ~generator ~root_seed
    ~jobs:(resolved_jobs jobs) ~budget ();
  let ledger = Ledger.create ?journal ?report_dir () in
  let journaling = journal <> None in
  let stats, states =
    Pool.run ?jobs ~root_seed ~budget
      ~init:(fun ~worker ->
        let source =
          match gen_of_seed with
          | None -> index_pure ~generator ~max_nodes ~binning
          | Some gen_of_seed ->
              (* Negative index space: disjoint from the test-seed
                 derivations. *)
              of_stream
                (gen_of_seed
                   (Splitmix.derive ~root:root_seed ~index:(-1 - worker)))
        in
        fresh_wstate ~source worker)
      ~test:(fun ws ~index ~seed ->
        let o = run_source ?attribute_semantic ws.w_source ~systems ~seed in
        List.iter (fun (k, n) -> add_count ws.w_verdicts k n) o.o_verdicts;
        ws.w_tests <- ws.w_tests + 1;
        if curve then record_point ws;
        [ (index, o, maybe_heartbeat ~journaling ws) ])
      ~finish:Fun.id
      ~sink:(fun (index, o, heartbeat) ->
        (match (journal, heartbeat) with
        | Some j, Some ev -> Journal.emit j ev
        | _ -> ());
        Ledger.offer ledger index o ();
        while Option.is_some (Ledger.apply_next ledger) do
          ()
        done)
      ()
  in
  (* A time budget can leave index gaps (a worker hit its deadline before
     reaching an index a faster worker passed). *)
  ignore (Ledger.flush ledger);
  let t = Ledger.totals ledger in
  let r =
    {
      r_stats = stats;
      r_verdicts = t.t_verdicts;
      r_crashes = t.t_crashes;
      r_failure_keys = t.t_keys;
      r_triggered = t.t_triggered;
      r_ops = t.t_ops;
      r_saved = t.t_saved;
      r_dups = t.t_dups;
      r_coverage = Cov.snapshot ();
      r_curves =
        (if curve then List.map (fun ws -> List.rev ws.w_curve) states else []);
    }
  in
  Option.iter
    (fun j ->
      Ledger.journal_finish j ~tests:stats.st_tests
        ~tests_per_sec:stats.st_tests_per_sec ~coverage:r.r_coverage t)
    journal;
  r

(** Sharded NNSmith differential-testing campaign.  Runs with whatever
    fault set is active on the calling domain (workers inherit it).  With
    [report_dir] each failure is minimized and saved to the persistent
    corpus by the calling domain only. *)
let fuzz ?jobs ?journal ?report_dir ?max_nodes ?binning
    ?(systems = Systems.all) ~root_seed ~budget () : result =
  drive ?jobs ?journal ?report_dir ?max_nodes ?binning ~kind:"fuzz" ~systems
    ~generator:"NNSmith" ~root_seed ~budget ()

(** Sharded coverage campaign of a stateful generator stream against one
    system: worker [w] drives [gen_of_seed s_w] with an independent
    derived seed and records a coverage curve point per test.  Worker
    coverage tables are unioned into the calling domain at join; the
    returned snapshot is the union. *)
let coverage ?jobs ?journal ?report_dir ?(generator = "generator")
    ~(system : Systems.t) ~root_seed ~budget ~gen_of_seed () : result =
  Cov.reset ();
  drive ?jobs ?journal ?report_dir ~gen_of_seed ~curve:true
    ~kind:"coverage" ~systems:[ system ] ~generator ~root_seed ~budget ()

(** Sharded seeded-bug hunt: with every catalogued defect active in each
    worker, run the index-pure NNSmith pipeline (or [gen_of_seed]'s
    streams), tallying which defects were triggered (crashes attribute by
    message; semantic mismatches by isolation re-runs). *)
let hunt ?jobs ?journal ?report_dir ?max_nodes ?(generator = "NNSmith")
    ?gen_of_seed ~root_seed ~budget () : result =
  let module Faults = Nnsmith_faults.Faults in
  let all_ids = List.map (fun (b : Faults.bug) -> b.b_id) Faults.catalogue in
  Faults.with_bugs all_ids (fun () ->
      drive ?jobs ?journal ?report_dir ?gen_of_seed ?max_nodes
        ~attribute_semantic:true ~kind:"hunt" ~systems:Systems.all ~generator
        ~root_seed ~budget ())
