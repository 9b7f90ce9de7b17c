(** Test-case input selection, shared by campaigns, reduction and the
    report/replay layer (kept in its own module so those layers do not
    depend on each other). *)

module Runner = Nnsmith_ops.Runner
module Search = Nnsmith_grad.Search
module Tel = Nnsmith_telemetry.Telemetry

(* Inputs for a test case: an iteration-capped gradient search; fall back
   to the last random binding (still useful for coverage) when it fails.
   The cap, not a deadline, keeps the binding a function of (rng, graph)
   under any scheduler load. *)
let find_binding ?max_iters rng g =
  Tel.with_span "exec/search" @@ fun () ->
  match (Search.search ?max_iters ~method_:Search.Gradient rng g).binding with
  | Some b -> b
  | None -> Runner.random_binding rng g
