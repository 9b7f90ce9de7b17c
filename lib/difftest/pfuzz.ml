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
    early but never changes what a test computes. *)

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

let incr_count tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let merge_counts ~into src =
  Hashtbl.iter
    (fun k n ->
      Hashtbl.replace into k (n + Option.value ~default:0 (Hashtbl.find_opt into k)))
    src

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

(** A worker-to-writer channel message: a failure tagged with its global
    test index (must never be lost), a per-index completion marker
    (likewise durable — the sink's ordering depends on it), or a
    best-effort journal event (heartbeats). *)
type msg =
  | M_failure of int * failure
  | M_event of Journal.event
  | M_done of int

let is_failure = function M_failure _ -> true | M_event _ | M_done _ -> false

(* Failures and completion markers must survive channel saturation;
   only heartbeat events are droppable. *)
let is_durable = function M_event _ -> false | M_failure _ | M_done _ -> true

(* Per-worker tallies; merged into the run result at join. *)
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

let record_ops t g verdict_kind =
  List.iter
    (fun (n : Graph.node) ->
      match n.op with
      | Op.Leaf _ -> ()
      | op ->
          let name = Op.name op in
          let inner =
            match Hashtbl.find_opt t.ops name with
            | Some h -> h
            | None ->
                let h = Hashtbl.create 4 in
                Hashtbl.replace t.ops name h;
                h
          in
          incr_count inner verdict_kind)
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

(* Worker-side campaign state: the model source, the tally, the coverage
   curve and the heartbeat clock. *)
type wstate = {
  w_id : int;
  w_source : source;
  w_tally : tally;
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
    w_tally = fresh_tally ();
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
  if not journaling then []
  else
    let now = Tel.now_ms () in
    if now < ws.w_next_hb then []
    else begin
      ws.w_next_hb <- now +. heartbeat_interval_ms;
      ws.w_seq <- ws.w_seq + 1;
      let snap = Cov.snapshot () in
      [
        M_event
          (Journal.Heartbeat
             {
               h_worker = ws.w_id;
               h_seq = ws.w_seq;
               h_at_ms = now;
               h_tests = ws.w_tests;
               h_verdicts = sorted_counts ws.w_tally.verdicts;
               h_cov_total = Cov.count snap;
               h_cov_pass = Cov.count_pass snap;
               h_cov_universe = Cov.universe_size ();
             });
      ]
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

(* The single-writer corpus/journal sink, run on the calling domain.
   Bug journal events originate in the corpus (the authority on novelty);
   when journaling without a corpus, a local dedup table stands in so the
   journal still records first-vs-repeat.

   Failures are applied in ascending test-index order, not arrival order:
   with [jobs > 1] the worker domains' messages interleave
   nondeterministically on the shared channel, and arrival-order corpus
   writes would make index.jsonl (and which duplicate arrives first)
   depend on the schedule.  Each worker's failures for index [i] precede
   its [M_done i] marker (the channel is FIFO per producer), so buffering
   until the next expected index is marked done replays the exact
   jobs-independent order — the same discipline the multi-process fleet
   applies to its per-index outcomes. *)
let make_sink ?journal ?report_dir () =
  let corpus = Option.map (fun d -> Corpus.open_ ?journal d) report_dir in
  let saved = ref 0 and dups = ref 0 in
  let jemit ev = Option.iter (fun j -> Journal.emit j ev) journal in
  let seen = Hashtbl.create 16 in
  let handle_failure f =
    match corpus with
    | Some c -> (
        match
          Report.save_failure c ~system:f.f_system ~generator:f.f_generator
            ~seed:f.f_seed ~export_bugs:f.f_export_bugs f.f_graph f.f_binding
            f.f_verdict
        with
        | `Saved _ -> incr saved
        | `Duplicate _ -> incr dups
        | `Not_failure -> ())
    | None -> (
        match Report.failure_key f.f_system f.f_verdict with
        | None -> ()
        | Some key ->
            let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen key) in
            Hashtbl.replace seen key n;
            jemit
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
                 }))
  in
  let buf : (int, failure list) Hashtbl.t = Hashtbl.create 64 in
  let finished : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let next = ref 0 in
  let apply_index i =
    match Hashtbl.find_opt buf i with
    | None -> ()
    | Some rev_fs ->
        Hashtbl.remove buf i;
        List.iter handle_failure (List.rev rev_fs)
  in
  let advance () =
    while Hashtbl.mem finished !next do
      Hashtbl.remove finished !next;
      apply_index !next;
      incr next
    done
  in
  let sink = function
    | M_event ev -> jemit ev
    | M_failure (i, f) ->
        Hashtbl.replace buf i
          (f :: Option.value ~default:[] (Hashtbl.find_opt buf i))
    | M_done i ->
        Hashtbl.replace finished i ();
        advance ()
  in
  (* Time budgets can leave index gaps (a worker hit its deadline before
     reaching an index a faster worker passed); drain whatever is still
     buffered in ascending index order.  Call after [Pool.run] returns —
     the writer domain has been joined, so the buffers are safe to read. *)
  let flush () =
    Hashtbl.fold (fun i _ acc -> i :: acc) buf []
    |> List.sort compare
    |> List.iter apply_index;
    Hashtbl.reset finished;
    next := 0
  in
  (sink, flush, saved, dups)

let assemble ~stats ~saved ~dups ~curve states =
  let tallies = List.map (fun ws -> ws.w_tally) states in
  let total = fresh_tally () in
  List.iter
    (fun t ->
      merge_counts ~into:total.verdicts t.verdicts;
      merge_counts ~into:total.crashes t.crashes;
      merge_counts ~into:total.triggered t.triggered;
      Hashtbl.iter (fun k () -> Hashtbl.replace total.keys k ()) t.keys;
      Hashtbl.iter
        (fun op inner ->
          let into =
            match Hashtbl.find_opt total.ops op with
            | Some h -> h
            | None ->
                let h = Hashtbl.create 4 in
                Hashtbl.replace total.ops op h;
                h
          in
          merge_counts ~into inner)
        t.ops)
    tallies;
  {
    r_stats = stats;
    r_verdicts = sorted_counts total.verdicts;
    r_crashes = sorted_counts total.crashes;
    r_failure_keys =
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) total.keys []);
    r_triggered = sorted_counts total.triggered;
    r_ops =
      Hashtbl.fold (fun op inner acc -> (op, sorted_counts inner) :: acc)
        total.ops []
      |> List.sort compare;
    r_saved = !saved;
    r_dups = !dups;
    r_coverage = Cov.snapshot ();
    r_curves =
      (if curve then List.map (fun ws -> List.rev ws.w_curve) states else []);
  }

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

let journal_finish ?journal (r : result) =
  Option.iter
    (fun j ->
      let now = Journal.now_ms () in
      if r.r_ops <> [] then
        Journal.emit j (Journal.Op_stats { o_at_ms = now; o_ops = r.r_ops });
      Journal.emit j
        (Journal.Coverage
           {
             c_at_ms = now;
             c_tests = r.r_stats.Pool.st_tests;
             c_total = Cov.count r.r_coverage;
             c_pass = Cov.count_pass r.r_coverage;
           });
      if r.r_stats.Pool.st_dropped > 0 then begin
        Tel.incr "journal/dropped" ~by:r.r_stats.Pool.st_dropped;
        Journal.emit j
          (Journal.Dropped
             { d_at_ms = now; d_count = r.r_stats.Pool.st_dropped })
      end;
      Journal.emit j
        (Journal.Summary
           {
             f_at_ms = now;
             f_tests = r.r_stats.Pool.st_tests;
             f_tests_per_sec = r.r_stats.Pool.st_tests_per_sec;
             f_verdicts = r.r_verdicts;
             f_failures = List.length r.r_failure_keys;
             f_saved = r.r_saved;
             f_dups = r.r_dups;
             f_cov_total = Cov.count r.r_coverage;
             f_cov_pass = Cov.count_pass r.r_coverage;
             f_dropped = r.r_stats.Pool.st_dropped;
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
(* Per-index outcome: the serializable result of one test, shared by the
   in-process domain pool and the multi-process fleet.  [run_one] is the
   single definition of "run test index i"; a fleet worker ships the
   outcome over its pipe, the supervisor absorbs it exactly as [assemble]
   absorbs worker tallies.                                              *)

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

let run_one ?attribute_semantic ?(generator = "NNSmith") ?(max_nodes = 10)
    ?(binning = true) ~systems ~seed () =
  let t = fresh_tally () in
  let fs =
    run_test ?attribute_semantic t
      (index_pure ~generator ~max_nodes ~binning)
      ~systems ~seed
  in
  outcome_of_tally t fs

(* Persisting a verdict — journal append, minimization, corpus I/O — is
   the only per-failure work still on the generation path at [jobs = 1];
   when any persistence is configured, stream it through the pool's
   writer domain instead ({!Pool.run}'s [async_sink]).  Without
   persistence the sink is a no-op and the inline path is cheaper. *)
let async_sink_wanted ~journal ~report_dir =
  Option.is_some journal || Option.is_some report_dir

(* [fuzz], [coverage] and [hunt] all run through here: journal the start,
   shard the test stream over the pool (each worker drawing its models
   from [gen_of_seed]'s stream, or index-pure NNSmith without one),
   persist failures through the single-writer sink, then assemble and
   journal the result.  With [curve], every test appends a point to its
   worker's coverage curve. *)
let drive ?jobs ?journal ?report_dir ?gen_of_seed ?(max_nodes = 10)
    ?(binning = true) ?attribute_semantic ?(curve = false) ~kind
    ~systems ~generator ~root_seed ~budget () =
  journal_start ?journal ~kind ~systems ~generator ~root_seed
    ~jobs:(resolved_jobs jobs) ~budget ();
  let sink, flush, saved, dups = make_sink ?journal ?report_dir () in
  let journaling = journal <> None in
  let stats, states =
    Pool.run ?jobs ~is_failure ~is_durable
      ~async_sink:(async_sink_wanted ~journal ~report_dir)
      ~root_seed ~budget
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
        let fs =
          run_test ?attribute_semantic ws.w_tally ws.w_source ~systems ~seed
        in
        ws.w_tests <- ws.w_tests + 1;
        if curve then record_point ws;
        List.map (fun f -> M_failure (index, f)) fs
        @ maybe_heartbeat ~journaling ws
        @ [ M_done index ])
      ~finish:Fun.id ~sink ()
  in
  flush ();
  let r = assemble ~stats ~saved ~dups ~curve states in
  journal_finish ?journal r;
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
