(** Test-case input selection, shared by campaigns, reduction and the
    report/replay layer. *)

val find_binding :
  ?max_iters:int ->
  Random.State.t ->
  Nnsmith_ir.Graph.t ->
  Nnsmith_ops.Runner.binding
(** A gradient search of at most [max_iters] iterations (default
    {!Nnsmith_grad.Search.default_max_iters}), falling back to the last
    random binding (still useful for coverage) when the search fails.  The
    budget is deterministic, independent of scheduler load. *)
