(* Tests for the domain-parallel fuzzing engine (lib/parallel): seed
   derivation, the MPSC channel, the worker pool, jobs-count determinism
   of the sharded campaign, and cross-domain telemetry/coverage merge. *)

module P = Nnsmith_parallel
module Pool = P.Pool
module Tel = Nnsmith_telemetry.Telemetry
module Cov = Nnsmith_coverage.Coverage
module Faults = Nnsmith_faults.Faults
module D = Nnsmith_difftest

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Splitmix                                                            *)

let test_splitmix_determinism () =
  check "same pair same seed" true
    (P.Splitmix.derive ~root:42 ~index:17 = P.Splitmix.derive ~root:42 ~index:17);
  check "index changes seed" true
    (P.Splitmix.derive ~root:42 ~index:17 <> P.Splitmix.derive ~root:42 ~index:18);
  check "root changes seed" true
    (P.Splitmix.derive ~root:42 ~index:17 <> P.Splitmix.derive ~root:43 ~index:17);
  check "non-negative" true
    (List.for_all
       (fun i -> P.Splitmix.derive ~root:(-5) ~index:i >= 0)
       (List.init 100 Fun.id))

let test_splitmix_spread () =
  (* 10k derived seeds from one root must be pairwise distinct. *)
  let tbl = Hashtbl.create 10_000 in
  for i = 0 to 9_999 do
    Hashtbl.replace tbl (P.Splitmix.derive ~root:7 ~index:i) ()
  done;
  check_int "all distinct" 10_000 (Hashtbl.length tbl)

let test_splitmix_stream () =
  let a = P.Splitmix.create 5 and b = P.Splitmix.create 5 in
  let xs = List.init 20 (fun _ -> P.Splitmix.next a) in
  let ys = List.init 20 (fun _ -> P.Splitmix.next b) in
  check "streams agree" true (xs = ys);
  check "stream advances" true (List.length (List.sort_uniq compare xs) = 20)

(* ------------------------------------------------------------------ *)
(* Chan                                                                *)

let test_chan_fifo () =
  let c = P.Chan.create ~producers:1 () in
  List.iter (P.Chan.send c) [ 1; 2; 3 ];
  P.Chan.producer_done c;
  check "1" true (P.Chan.recv c = Some 1);
  check "2" true (P.Chan.recv c = Some 2);
  check "3" true (P.Chan.recv c = Some 3);
  check "eos" true (P.Chan.recv c = None);
  check "eos sticky" true (P.Chan.recv c = None)

let test_chan_over_retire () =
  let c = P.Chan.create ~producers:1 () in
  P.Chan.producer_done c;
  Alcotest.check_raises "over-retire"
    (Invalid_argument "Chan.producer_done: no open producers") (fun () ->
      P.Chan.producer_done c)

let test_chan_cross_domain () =
  (* Two producer domains, one consumer: every sent value arrives exactly
     once and the stream terminates. *)
  let c = P.Chan.create ~producers:2 () in
  let produce lo =
    Domain.spawn (fun () ->
        for i = lo to lo + 499 do
          P.Chan.send c i
        done;
        P.Chan.producer_done c)
  in
  let d1 = produce 0 and d2 = produce 1000 in
  let seen = Hashtbl.create 1000 in
  let rec drain () =
    match P.Chan.recv c with
    | Some v ->
        Hashtbl.replace seen v ();
        drain ()
    | None -> ()
  in
  drain ();
  Domain.join d1;
  Domain.join d2;
  check_int "all received once" 1000 (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

(* A trivial pipeline: each test "fails" when its index is divisible by 3,
   shipping (index, seed) so we can check sharding and seed purity. *)
let run_mod3 ~jobs n =
  Pool.run ~jobs ~root_seed:11 ~budget:(Pool.Tests n)
    ~init:(fun ~worker -> ref (worker * 0))
    ~test:(fun count ~index ~seed ->
      incr count;
      if index mod 3 = 0 then [ (index, seed) ] else [])
    ~finish:(fun count -> !count)
    ~sink:ignore ()

let test_pool_shards_exact_budget () =
  List.iter
    (fun jobs ->
      let stats, per_worker = run_mod3 ~jobs 20 in
      check_int "total tests" 20 stats.Pool.st_tests;
      check_int "worker count" jobs (List.length per_worker);
      check_int "per-worker sums" 20 (List.fold_left ( + ) 0 per_worker);
      (* worker w gets ceil((n - w) / jobs) indices *)
      List.iteri
        (fun w c -> check_int "worker share" ((20 - w + jobs - 1) / jobs) c)
        per_worker)
    [ 1; 2; 3; 8 ]

let test_pool_failures_jobs_independent () =
  let collect jobs =
    let fs = ref [] in
    let _, _ =
      Pool.run ~jobs ~root_seed:11 ~budget:(Pool.Tests 30)
        ~init:(fun ~worker:_ -> ())
        ~test:(fun () ~index ~seed ->
          if index mod 3 = 0 then [ (index, seed) ] else [])
        ~finish:ignore
        ~sink:(fun f -> fs := f :: !fs) ()
    in
    List.sort compare !fs
  in
  let one = collect 1 in
  check_int "10 failures" 10 (List.length one);
  check "jobs=2 same" true (collect 2 = one);
  check "jobs=4 same" true (collect 4 = one);
  (* and the seeds really are the pure derivation *)
  List.iter
    (fun (i, s) -> check_int "seed purity" (P.Splitmix.derive ~root:11 ~index:i) s)
    one

let test_pool_test_exceptions_counted () =
  let stats, _ =
    Pool.run ~jobs:2 ~root_seed:1 ~budget:(Pool.Tests 10)
      ~init:(fun ~worker:_ -> ())
      ~test:(fun () ~index ~seed:_ ->
        if index mod 2 = 0 then failwith "boom" else [])
      ~finish:ignore ~sink:ignore ()
  in
  check_int "all indices attempted" 10 stats.Pool.st_tests;
  check_int "even indices errored" 5 stats.Pool.st_errors

(* ------------------------------------------------------------------ *)
(* Telemetry / coverage merge                                          *)

(* A fixed workload: every test bumps a counter, observes a histogram
   value and hits a coverage site derived from its index. *)
let merge_workload ~jobs n =
  Tel.reset ();
  Cov.reset ();
  let stats, _ =
    Pool.run ~jobs ~root_seed:3 ~budget:(Pool.Tests n)
      ~init:(fun ~worker:_ -> ())
      ~test:(fun () ~index ~seed:_ ->
        Tel.incr "ptest/ticks";
        Tel.incr ~by:2 "ptest/double";
        Tel.observe "ptest/ms" (float_of_int (1 + (index mod 7)));
        Tel.with_span "ptest/span" (fun () -> ());
        Cov.hit ~file:"ptest.ml" (Printf.sprintf "site-%d" (index mod 13));
        [])
      ~finish:ignore ~sink:ignore ()
  in
  ignore stats;
  let snap = Tel.snapshot () in
  let histo = List.assoc "ptest/ms" snap.Tel.histograms in
  ( Tel.counter_value "ptest/ticks",
    Tel.counter_value "ptest/double",
    histo.Tel.hv_count,
    histo.Tel.hv_sum,
    histo.Tel.hv_buckets,
    (List.assoc "ptest/span" snap.Tel.spans).Tel.sv_count,
    Cov.count (Cov.snapshot ()) )

let test_merged_telemetry_equals_single_domain () =
  let t1, d1, hc1, hs1, hb1, sc1, cov1 = merge_workload ~jobs:1 91 in
  let t3, d3, hc3, hs3, hb3, sc3, cov3 = merge_workload ~jobs:3 91 in
  check_int "ticks" t1 t3;
  check_int "ticks absolute" 91 t3;
  check_int "double" d1 d3;
  check_int "histogram count" hc1 hc3;
  check "histogram sum" true (Float.abs (hs1 -. hs3) < 1e-9);
  check "histogram buckets" true (hb1 = hb3);
  check_int "span count" sc1 sc3;
  check_int "coverage union" cov1 cov3;
  check_int "coverage absolute" 13 cov3

(* ------------------------------------------------------------------ *)
(* End-to-end determinism of the sharded fuzzing campaign              *)

let test_fuzz_determinism_across_jobs () =
  Faults.activate_all ();
  Fun.protect ~finally:Faults.deactivate_all @@ fun () ->
  let run jobs =
    Tel.reset ();
    D.Pfuzz.fuzz ~jobs ~systems:[ D.Systems.lotus ] ~root_seed:2024
      ~budget:(P.Pool.Tests 24) ()
  in
  let r1 = run 1 and r4 = run 4 in
  check_int "jobs=1 ran the budget" 24 r1.D.Pfuzz.r_stats.Pool.st_tests;
  check_int "jobs=4 ran the budget" 24 r4.D.Pfuzz.r_stats.Pool.st_tests;
  check "found failures" true (r1.D.Pfuzz.r_failure_keys <> []);
  check "identical failure-key sets" true
    (r1.D.Pfuzz.r_failure_keys = r4.D.Pfuzz.r_failure_keys);
  check "identical crash tallies" true
    (r1.D.Pfuzz.r_crashes = r4.D.Pfuzz.r_crashes);
  check "identical verdict tallies" true
    (r1.D.Pfuzz.r_verdicts = r4.D.Pfuzz.r_verdicts)

(* What a stream campaign computes, minus the display-only ms. *)
let stream_digest (r : D.Pfuzz.result) =
  ( r.r_verdicts,
    r.r_failure_keys,
    r.r_triggered,
    Cov.to_list r.r_coverage,
    List.map
      (List.map (fun (p : D.Pfuzz.point) -> (p.p_tests, p.p_total, p.p_pass)))
      r.r_curves )

let lemon_hunt () =
  Cov.reset ();
  D.Pfuzz.hunt ~jobs:1 ~generator:"LEMON"
    ~gen_of_seed:(fun seed -> D.Generators.lemon ~seed ())
    ~root_seed:2024
    ~budget:(P.Pool.Tests 8) ()

let graphfuzzer_coverage () =
  Cov.reset ();
  D.Pfuzz.coverage ~jobs:1 ~generator:"GraphFuzzer" ~system:D.Systems.lotus
    ~root_seed:2024
    ~budget:(P.Pool.Tests 30)
    ~gen_of_seed:(fun seed -> D.Generators.graphfuzzer ~seed ())
    ()

let test_stream_hunt_repeats () =
  let a = lemon_hunt () and b = lemon_hunt () in
  check_int "ran the budget" 8 a.r_stats.st_tests;
  check "the stream triggered defects" true (a.r_triggered <> []);
  check "hunts keep no curve" true (a.r_curves = []);
  check "identical hunts" true (stream_digest a = stream_digest b)

let test_stream_coverage_repeats () =
  Faults.deactivate_all ();
  let a = graphfuzzer_coverage () and b = graphfuzzer_coverage () in
  check "identical campaigns" true (stream_digest a = stream_digest b);
  match a.r_curves with
  | [ curve ] ->
      check_int "one point per test" 30 (List.length curve);
      check "points number the tests" true
        (List.mapi (fun i (p : D.Pfuzz.point) -> p.p_tests = i + 1) curve
        |> List.for_all Fun.id);
      check "counts never fall" true
        (let rec mono = function
           | (x : D.Pfuzz.point) :: (y :: _ as rest) ->
               x.p_total <= y.p_total && x.p_pass <= y.p_pass && mono rest
           | _ -> true
         in
         mono curve);
      let last = List.nth curve (List.length curve - 1) in
      check_int "last point is the campaign's coverage"
        (Cov.count a.r_coverage) last.p_total;
      check_int "last point is the campaign's pass coverage"
        (Cov.count_pass a.r_coverage) last.p_pass
  | _ -> Alcotest.fail "jobs=1 campaign must return one curve"

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "parallel"
    [
      ( "splitmix",
        [
          tc "determinism" `Quick test_splitmix_determinism;
          tc "spread" `Quick test_splitmix_spread;
          tc "stream" `Quick test_splitmix_stream;
        ] );
      ( "chan",
        [
          tc "fifo + end of stream" `Quick test_chan_fifo;
          tc "over-retire" `Quick test_chan_over_retire;
          tc "cross-domain" `Quick test_chan_cross_domain;
        ] );
      ( "pool",
        [
          tc "shards exact budget" `Quick test_pool_shards_exact_budget;
          tc "failures jobs-independent" `Quick test_pool_failures_jobs_independent;
          tc "test exceptions counted" `Quick test_pool_test_exceptions_counted;
        ] );
      ( "merge",
        [
          tc "telemetry/coverage merge" `Quick
            test_merged_telemetry_equals_single_domain;
        ] );
      ( "campaign",
        [
          tc "fuzz deterministic across jobs" `Quick
            test_fuzz_determinism_across_jobs;
          tc "stream hunt repeats" `Quick test_stream_hunt_repeats;
          tc "stream coverage repeats" `Quick test_stream_coverage_repeats;
        ] );
    ]
