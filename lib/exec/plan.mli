(** Compiled per-graph execution plans.

    A plan is built once per graph and reused across every forward pass of
    that model: dense topologically-ordered value slots (no per-iteration
    hashtable), per-op kernels with precomputed broadcast/stride/reduction
    index maps, and one preallocated output buffer per node.  Each graph has
    one plan, shared by the input search and the differential oracle: every
    slot keeps its value, and a validity bit lets both re-execute only what
    changed — after an optimiser step touches leaf set L, only nodes
    reachable from L recompute ({!forward_until_bad}), and a reference pass
    over the binding the search returned recomputes nothing
    ({!run_reference}).

    Results are bit-identical to the {!Nnsmith_ops.Eval} interpreter: kernels
    share their element formulas with the interpreter's (via the [_into]
    kernel variants), and any node whose declared types fail to validate at
    compile time — or whose runtime inputs stop matching their declared
    types — falls back to [Eval.eval] for that node. *)

type t

val graph : t -> Nnsmith_ir.Graph.t

val for_graph : Nnsmith_ir.Graph.t -> t
(** The graph's plan from the per-domain cohort pool (compiled on first
    request; the pool holds the plan of the most recent graph, looked up
    by physical equality). *)

val build : Nnsmith_ir.Graph.t -> t
(** Compile a fresh plan, bypassing the pool.  Never raises — unsupported
    nodes get interpreter fallbacks. *)

val set_leaf : t -> int -> Nnsmith_tensor.Nd.t -> unit
(** Bind a leaf's value and mark the leaf invalid.  Does NOT propagate
    invalidity: callers follow with {!invalidate} over the changed ids (or
    {!invalidate_all} on a restart).  A caller that writes into a bound
    tensor in place must invalidate its leaf the same way. *)

val leaf_value : t -> int -> Nnsmith_tensor.Nd.t
(** Current value of any node (used for leaves: the bound tensor). *)

(** {2 Slots}

    A plan holds one slot per graph node, numbered in the topological order
    of [Graph.nodes]; a program compiled over the plan (the search's reverse
    pass) addresses nodes by slot index. *)

val slot_count : t -> int

val slot_of : t -> int -> int
(** Slot index of a node id.  Raises [Not_found] for an id not in the
    graph. *)

val slot_node : t -> int -> Nnsmith_ir.Graph.node

val slot_inputs : t -> int -> int array
(** Slot indices of the node's inputs, in input order (shared; do not
    mutate). *)

val slot_value : t -> int -> Nnsmith_tensor.Nd.t
(** The slot's current value: its last forward result, or the bound tensor
    for a leaf. *)

val invalidate_all : t -> unit

val invalidate : t -> int list -> unit
(** Mark the given node ids and every transitive consumer invalid. *)

val forward_until_bad :
  t -> (Nnsmith_ir.Graph.node * Nnsmith_tensor.Nd.t list) option * int
(** Recompute invalid slots in topological order, stopping at the first node
    whose value contains NaN/Inf (returned with its input values, and left
    invalid so it recomputes next pass).  Also returns the number of op nodes
    evaluated.  All leaves must have been bound with {!set_leaf}. *)

val run_reference :
  t ->
  (int * Nnsmith_tensor.Nd.t) list ->
  (int * Nnsmith_tensor.Nd.t) list * bool
(** Oracle pass over a binding, equal to [Runner.run]: returns the graph
    outputs in [Graph.outputs] order and whether ANY node value contained
    NaN/Inf, and raises [Runner.Missing_leaf] / [Eval.Eval_error] at the
    same node, in the same topological position, as [Runner.run] (unbound
    [Const_fill] leaves materialise their fill as it does).

    The pass is incremental.  A leaf is unchanged only when its slot is
    valid and the binding holds the very tensor (physical equality) the slot
    holds.  In topological order, an op slot recomputes when it is invalid
    or one of its inputs was rebound or recomputed; a slot stays valid only
    if its value is finite, and a raise invalidates every slot.  So the
    binding {!leaf_value} reports after a successful search costs no kernel
    run.  The binding's tensors must not have been written in place since
    they were bound, unless their leaves were invalidated.

    The outputs are views into the plan's slots: they stay valid until the
    next run on this plan (a search or a reference pass), which may
    overwrite them. *)

val cohort_clear : unit -> unit
(** Drop the calling domain's pooled plans — used by benches and tests to
    start from a cold pool. *)
