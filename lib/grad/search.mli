(** Gradient-guided value search (Algorithm 3): find model inputs and
    weights under which no operator produces NaN/Inf. *)

type method_ =
  | Sampling  (** re-draw random values until valid (the paper's baseline) *)
  | Gradient_no_proxy  (** gradient search without proxy derivatives *)
  | Gradient  (** the full method of §3.3 *)

type outcome = {
  binding : Nnsmith_ops.Runner.binding option;  (** [Some] iff successful *)
  iterations : int;
  restarts : int;
  elapsed_ms : float;
}

val forward_until_bad :
  Nnsmith_ir.Graph.t ->
  Nnsmith_ops.Runner.binding ->
  (int, Nnsmith_tensor.Nd.t) Hashtbl.t
  * (Nnsmith_ir.Graph.node * Nnsmith_tensor.Nd.t list) option
(** Forward pass recording every value, stopped at the first node producing
    NaN/Inf (returned with its inputs). *)

val binding_is_bad : Nnsmith_ir.Graph.t -> Nnsmith_ops.Runner.binding -> bool
(** Does any node produce NaN/Inf under this binding?  (Used for the paper's
    "56.8% of 20-node models" statistic.) *)

val default_max_iters : int
(** The campaign's input-search budget: 64 iterations. *)

val search :
  ?budget_ms:float ->
  ?max_iters:int ->
  ?lr:float ->
  ?lo:float ->
  ?hi:float ->
  method_:method_ ->
  Random.State.t ->
  Nnsmith_ir.Graph.t ->
  outcome
(** Run the search for at most [max_iters] iterations (default
    {!default_max_iters}; learning rate 0.5 and init range [\[1, 9\]] per
    §5.1) — a deterministic budget, independent of scheduler load.
    [budget_ms] adds a wall-clock deadline (default: none), which only the
    timeout study of Figure 11 uses.  [elapsed_ms] is for display. *)
