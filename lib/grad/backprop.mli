(** The input search's reverse pass, compiled over its execution plan.

    Built once per search, at its first backward pass.  Each node's VJP is
    compiled at its first use for the dtypes and shapes of the plan's
    values, and every node keeps a preallocated F64 cotangent buffer, so a
    steady-state backward pass allocates only its result list.  The
    gradients are bit-identical to back-propagating allocated F64 tensors
    through the graph: the first gradient to reach a node is its cotangent,
    later ones are added as [prev +. g] in reverse topological order and
    then input order. *)

type t

val create : proxy:bool -> Nnsmith_exec.Plan.t -> t
(** A reverse program over a search plan; [proxy] selects the §3.3 proxy
    derivatives for non-differentiable operators.  Compiles nothing yet. *)

val run :
  t -> seeds:(int * Nnsmith_tensor.Nd.t) list -> (int * Nnsmith_tensor.Nd.t) list
(** Back-propagate the F64 cotangent [seeds] (node id -> gradient of the
    loss w.r.t. that node's output, applied in list order) through the
    plan's current forward values, and return the gradient at each
    trainable leaf that receives one (model inputs and weights, in graph
    order; constant fills are frozen).  Every ancestor of a seed must hold
    its forward value.  The returned tensors are views of the program's
    buffers: valid until the next [run].  Bumps [grad/backward_nodes] by the
    number of VJPs run. *)
