(* Domain-based worker pool for sharded fuzzing campaigns.

   The campaign's test stream is a single global index sequence 0,1,2,…;
   worker [w] of [jobs] runs exactly the indices congruent to [w] modulo
   [jobs], and the seed of test [i] is [Splitmix.derive ~root ~index:i].
   Under a [Tests n] budget the set of executed (index, seed) pairs is
   therefore identical for every [jobs] value — parallelism changes the
   schedule, never the workload.

   Side effects are partitioned by domain: telemetry, coverage and the
   seeded-fault set are all domain-local (see [Nnsmith_telemetry],
   [Nnsmith_coverage], [Nnsmith_faults]), accumulated privately by each
   worker and folded into the spawning domain at join.  Emitted items —
   the only cross-domain data flow during the run — are funnelled through
   one MPSC channel to the spawning domain, which is the single writer of
   the bug-report corpus, so dedup and index.jsonl stay race-free. *)

module Tel = Nnsmith_telemetry.Telemetry
module Cov = Nnsmith_coverage.Coverage
module Faults = Nnsmith_faults.Faults

type budget = Time_ms of float | Tests of int

type worker_report = {
  wr_worker : int;
  wr_tests : int;
  wr_errors : int;  (** tests whose [test] callback raised *)
  wr_elapsed_ms : float;
}

type stats = {
  st_jobs : int;
  st_tests : int;
  st_errors : int;
  st_elapsed_ms : float;
  st_tests_per_sec : float;
  st_workers : worker_report list;
}

let default_jobs () = Domain.recommended_domain_count ()

let record_worker_stats (r : worker_report) =
  Tel.incr "parallel/tests" ~by:r.wr_tests;
  if r.wr_errors > 0 then Tel.incr "parallel/test_errors" ~by:r.wr_errors;
  Tel.observe "parallel/worker_tests" (float_of_int r.wr_tests);
  Tel.observe "parallel/worker_ms" r.wr_elapsed_ms

let mk_stats ~jobs ~elapsed_ms workers =
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 workers in
  let tests = sum (fun w -> w.wr_tests) in
  {
    st_jobs = jobs;
    st_tests = tests;
    st_errors = sum (fun w -> w.wr_errors);
    st_elapsed_ms = elapsed_ms;
    st_tests_per_sec = float_of_int tests /. Float.max 1e-9 (elapsed_ms /. 1000.);
    st_workers = workers;
  }

(* One worker's index loop, shared by the inline (jobs = 1) and the
   domain-sharded paths. *)
let shard_loop ~jobs ~worker ~root_seed ~limit ~deadline ~state ~test ~emit =
  let tests = ref 0 and errors = ref 0 in
  let i = ref worker in
  let within () =
    !i < limit
    && (match deadline with None -> true | Some d -> Tel.now_ms () < d)
  in
  while within () do
    (match test state ~index:!i ~seed:(Splitmix.derive ~root:root_seed ~index:!i) with
    | fs -> List.iter emit fs
    | exception _ -> incr errors);
    incr tests;
    i := !i + jobs
  done;
  (!tests, !errors)

let run ?jobs ~root_seed ~budget ~init ~test ~finish ~sink () =
  let jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  Tel.incr "parallel/runs";
  let t0 = Tel.now_ms () in
  let limit = match budget with Tests n -> n | Time_ms _ -> max_int in
  let deadline =
    match budget with Time_ms b -> Some (t0 +. b) | Tests _ -> None
  in
  if jobs = 1 then begin
    (* Inline path: no domain spawn, no channel — the sink is called
       synchronously, exactly like a sequential campaign loop. *)
    let state = init ~worker:0 in
    let tests, errors =
      shard_loop ~jobs:1 ~worker:0 ~root_seed ~limit ~deadline ~state ~test
        ~emit:sink
    in
    let elapsed_ms = Tel.now_ms () -. t0 in
    let report =
      {
        wr_worker = 0;
        wr_tests = tests;
        wr_errors = errors;
        wr_elapsed_ms = elapsed_ms;
      }
    in
    record_worker_stats report;
    (mk_stats ~jobs:1 ~elapsed_ms [ report ], [ finish state ])
  end
  else begin
    let chan = Chan.create ~producers:jobs () in
    let fault_ids = Faults.active_ids () in
    let worker_main w () =
      (* A fresh domain starts with empty domain-local telemetry, coverage
         and fault tables; only the fault set is inherited explicitly. *)
      Faults.set_active fault_ids;
      let wt0 = Tel.now_ms () in
      let state, tests, errors =
        Fun.protect
          ~finally:(fun () -> Chan.producer_done chan)
          (fun () ->
            let state = init ~worker:w in
            let tests, errors =
              shard_loop ~jobs ~worker:w ~root_seed ~limit ~deadline ~state
                ~test ~emit:(Chan.send chan)
            in
            (state, tests, errors))
      in
      let result = finish state in
      let report =
        {
          wr_worker = w;
          wr_tests = tests;
          wr_errors = errors;
          wr_elapsed_ms = Tel.now_ms () -. wt0;
        }
      in
      (report, result, Tel.current_sink (), Cov.export ())
    in
    let domains = List.init jobs (fun w -> Domain.spawn (worker_main w)) in
    (* This domain is the single corpus writer: drain the channel while
       the workers run. *)
    let rec drain () =
      match Chan.recv chan with
      | Some f ->
          sink f;
          drain ()
      | None -> ()
    in
    drain ();
    let joined = List.map Domain.join domains in
    let elapsed_ms = Tel.now_ms () -. t0 in
    let workers =
      List.map
        (fun (report, _, tel, cov) ->
          Tel.merge_sink tel;
          Cov.absorb cov;
          record_worker_stats report;
          report)
        joined
    in
    (mk_stats ~jobs ~elapsed_ms workers, List.map (fun (_, r, _, _) -> r) joined)
  end
