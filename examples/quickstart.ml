(* Quickstart: the full NNSmith pipeline on one model.

     dune exec examples/quickstart.exe

   1. generate a random valid model (Algorithm 1 + 2)
   2. find NaN/Inf-free inputs by gradient search (Algorithm 3)
   3. differentially test two compilers against the reference interpreter *)

module Config = Nnsmith_core.Config
module Gen = Nnsmith_core.Gen
module Graph = Nnsmith_ir.Graph
module Search = Nnsmith_grad.Search
module D = Nnsmith_difftest

let () =
  Nnsmith_faults.Faults.deactivate_all ();

  (* 1. Generate a 10-operator model. *)
  let graph, stats =
    Gen.generate_with_stats { Config.default with seed = 2023; max_nodes = 10 }
  in
  Printf.printf "Generated %d nodes in %.1f ms:\n%s\n\n" stats.nodes_total
    stats.gen_ms (Graph.to_string graph);

  (* 2. Find inputs and weights that avoid NaN/Inf anywhere in the graph. *)
  let rng = Random.State.make [| 42 |] in
  let outcome = Search.search ~method_:Search.Gradient rng graph in
  let binding =
    match outcome.binding with
    | Some b ->
        Printf.printf
          "Gradient search found numerically-valid inputs in %d iteration(s) \
           (%.2f ms).\n"
          outcome.iterations outcome.elapsed_ms;
        b
    | None ->
        print_endline "Search failed; falling back to random inputs.";
        Nnsmith_ops.Runner.random_binding rng graph
  in

  (* 3. Compile and compare against the reference interpreter. *)
  List.iter
    (fun system ->
      let verdict =
        match D.Harness.test system graph binding with
        | D.Harness.Pass -> "PASS (outputs match the reference)"
        | D.Harness.Crash m -> "CRASH: " ^ m
        | D.Harness.Semantic { rel_err; _ } ->
            Printf.sprintf "SEMANTIC DIFFERENCE (rel err %.2g)" rel_err
        | D.Harness.Skipped why -> "skipped: " ^ why
      in
      Printf.printf "%-6s %s\n" system.D.Systems.s_name verdict)
    D.Systems.open_source
