(* Bug hunting with differential testing (the §5.4 workflow).

     dune exec examples/bug_hunt.exe

   Activates every seeded defect in the simulated compilers, runs a fixed
   number of NNSmith-generated tests, and reports which bug classes were
   triggered, split crash vs semantic — a miniature of the paper's
   Table 3. *)

module Faults = Nnsmith_faults.Faults
module D = Nnsmith_difftest

let () =
  let tests = 500 in
  Printf.printf "Hunting for %d seeded bug classes over %d tests...\n%!"
    (List.length Faults.catalogue) tests;
  let r =
    D.Pfuzz.hunt ~jobs:1 ~root_seed:1
      ~budget:(Nnsmith_parallel.Pool.Tests tests) ()
  in
  Printf.printf "Ran %d tests; triggered %d distinct bug classes:\n\n"
    r.r_stats.st_tests
    (List.length r.r_triggered);
  List.iter
    (fun (id, count) ->
      match Faults.find id with
      | Some bug ->
          Printf.printf "%-36s %-9s %-8s hit %3d times\n    %s\n" id
            (Faults.category_name bug.category)
            (Faults.effect_name bug.effect)
            count bug.description
      | None -> ())
    r.r_triggered;
  let triggered = Hashtbl.create 32 in
  List.iter (fun (id, n) -> Hashtbl.replace triggered id n) r.r_triggered;
  Printf.printf "\nBug distribution (triggered only):\n";
  Printf.printf "%-10s %-15s %-11s %-13s %-6s %-9s\n" "system" "Transformation"
    "Conversion" "Unclassified" "Crash" "Semantic";
  List.iter
    (fun (sys, t, c, u, cr, se) ->
      Printf.printf "%-10s %-15d %-11d %-13d %-6d %-9d\n" sys t c u cr se)
    (D.Bughunt.distribution triggered);
  Printf.printf "\nUnique crash messages observed: %d\n"
    (List.length r.r_crashes)
