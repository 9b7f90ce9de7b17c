(** One differential test: reference vs compiled execution, with O0
    re-compilation for fault localisation (§4) and high error tolerance to
    suppress floating-point false alarms (§5.4). *)

type verdict =
  | Pass
  | Crash of string  (** the exception message (see {!dedup_key}) *)
  | Semantic of { sem_kind : [ `Optimization | `Frontend ]; rel_err : float }
      (** outputs disagree with the reference; [`Optimization] iff the O0
          build disagrees with the optimized one *)
  | Skipped of string
      (** the reference produced NaN/Inf — excluded per §2.3 *)

val rtol : float
val atol : float

val message_of_exn : exn -> string

val reference_outputs :
  Nnsmith_ir.Graph.t ->
  Nnsmith_ops.Runner.binding ->
  (int * Nnsmith_tensor.Nd.t) list * bool
(** Reference outputs in [Graph.outputs] order, plus whether any node value
    contained NaN/Inf (the §2.3 exclusion flag).  Runs the graph's one
    execution plan ({!Nnsmith_exec.Plan.run_reference}), bit-identical to
    interpreting it with {!Nnsmith_ops.Runner.run}; after a search on the
    graph returned [binding], nothing recomputes.  The outputs are views
    that stay valid until the next run on that plan. *)

val test :
  ?exported:Nnsmith_ir.Graph.t ->
  Systems.t ->
  Nnsmith_ir.Graph.t ->
  Nnsmith_ops.Runner.binding ->
  verdict
(** [test ?exported system g binding]: reference semantics come from the
    pre-export model [g] (the "PyTorch" results); [exported] (default [g])
    is what the compiler receives. *)

val dedup_key : string -> string
(** Crash-dedup key: digits are masked so the same defect reported against
    different nodes counts once. *)

val bug_id_of_message : string -> string option
(** Seeded-bug id from a crash message ("[id] ..."), if the id is in the
    {!Nnsmith_faults.Faults.catalogue}. *)
