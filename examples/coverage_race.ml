(* A miniature of the paper's coverage evaluation (Figure 4): race NNSmith
   against the GraphFuzzer- and LEMON-style baselines on one compiler for
   the same time and print the coverage each reaches.

     dune exec examples/coverage_race.exe *)

module Cov = Nnsmith_coverage.Coverage
module D = Nnsmith_difftest

let () =
  Nnsmith_faults.Faults.deactivate_all ();
  let budget_ms = 2000. in
  let gens =
    [
      ("NNSmith", fun seed -> D.Generators.nnsmith ~seed ());
      ("GraphFuzzer", fun seed -> D.Generators.graphfuzzer ~seed ());
      ("LEMON", fun seed -> D.Generators.lemon ~seed ());
    ]
  in
  Printf.printf "%.0f s of fuzzing against OxRT each:\n\n" (budget_ms /. 1000.);
  let finals =
    List.map
      (fun (name, gen_of_seed) ->
        let r =
          D.Pfuzz.coverage ~jobs:1 ~generator:name ~system:D.Systems.oxrt
            ~root_seed:1
            ~budget:(Nnsmith_parallel.Pool.Time_ms budget_ms)
            ~gen_of_seed ()
        in
        Printf.printf "%-12s tests=%-5d total-coverage=%-4d pass-only=%-4d\n"
          name r.r_stats.st_tests (Cov.count r.r_coverage)
          (Cov.count_pass r.r_coverage);
        r.r_coverage)
      gens
  in
  match finals with
  | [ nnsmith; graphfuzzer; lemon ] ->
      Printf.printf
        "\nunique coverage: NNSmith=%d GraphFuzzer=%d LEMON=%d\n"
        (Cov.count (Cov.unique nnsmith [ graphfuzzer; lemon ]))
        (Cov.count (Cov.unique graphfuzzer [ nnsmith; lemon ]))
        (Cov.count (Cov.unique lemon [ nnsmith; graphfuzzer ]))
  | _ -> ()
