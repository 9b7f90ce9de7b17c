(** Compiled per-graph execution plans.

    A plan is built once per graph and reused across every forward pass of
    that model: dense topologically-ordered value slots (no per-iteration
    hashtable), per-op kernels with precomputed broadcast/stride/reduction
    index maps, and preallocated output buffers.  Two flavours exist:

    - {!for_search}: every node keeps a private buffer (the search's reverse
      pass reads every intermediate value through the slot accessors below)
      and a validity bit enables dirty-set re-execution —
      after an optimiser step touches leaf set L, only nodes reachable from L
      recompute.
    - {!for_oracle}: a liveness-based buffer arena — a node whose last
      consumer has run donates its buffer to later nodes of matching
      representation and element count, so a steady-state reference run
      allocates nothing.

    Results are bit-identical to the {!Nnsmith_ops.Eval} interpreter: kernels
    share their element formulas with the interpreter's (via the [_into]
    kernel variants), and any node whose declared types fail to validate at
    compile time — or whose runtime inputs stop matching their declared
    types — falls back to [Eval.eval] for that node. *)

type t

val graph : t -> Nnsmith_ir.Graph.t

val for_search : Nnsmith_ir.Graph.t -> t
(** Keep-all-buffers plan from the per-domain cohort pool (compiled on
    first request; the pool holds the plans of the 4 most recent graphs,
    looked up by physical equality with a content-key fallback so a
    replayed graph — regenerated as a physically distinct but identical
    value — reuses the original's plans; evicted plans retire their
    buffers to {!Arena}). *)

val for_oracle : Nnsmith_ir.Graph.t -> t
(** Arena plan (buffer reuse) from the per-domain cohort pool. *)

val build : reuse:bool -> Nnsmith_ir.Graph.t -> t
(** Compile a fresh plan, bypassing the cache; [reuse] enables the buffer
    arena.  Never raises — unsupported nodes get interpreter fallbacks. *)

val set_leaf : t -> int -> Nnsmith_tensor.Nd.t -> unit
(** Bind a leaf's value and mark the leaf invalid.  Does NOT propagate
    invalidity: callers follow with {!invalidate} over the changed ids (or
    {!invalidate_all} on a restart). *)

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
(** Full oracle pass over a binding: every node recomputes (leaves read from
    the binding; unbound [Const_fill] leaves materialise their fill exactly
    as [Runner.run] does).  Returns the graph outputs in [Graph.outputs]
    order and whether ANY node value contained NaN/Inf.  Raises
    [Runner.Missing_leaf] / [Eval.Eval_error] at the same node, in the same
    topological position, as [Runner.run]. *)

val slot_buffers : t -> (int * Nnsmith_tensor.Nd.t) list
(** Non-leaf (node id, preallocated buffer) pairs in topological order —
    introspection for the arena-aliasing tests.  Buffers of distinct ids are
    physically shared exactly when the arena reused one. *)

val fallback_nodes : t -> int
(** Number of op nodes without a compiled kernel (interpreter fallback). *)

val cohort_clear : unit -> unit
(** Drop the calling domain's pooled plans and arena buffers — used by
    benches and tests to start from a cold pool. *)
