(** Unique operator-instance accounting for the binning ablation
    (Figure 9): instances are distinguished by operator, attributes and
    input types. *)

type t

val create : unit -> t

val instance_key : Nnsmith_ir.Graph.t -> Nnsmith_ir.Graph.node -> string

val add : t -> Nnsmith_ir.Graph.t -> int
(** Record all operator instances of a model; returns how many were new. *)

val count : t -> int

val abs_count : t -> int
(** Distinct abstract instances seen: operator name plus input
    (dtype, rank) signature, ignoring attributes and dimension magnitudes.
    This is the key space of the compiled templates' memoized type
    matching ({!Nnsmith_ops.Spec.compiled}), so the ratio
    [count / abs_count] explains that memo's hit rate.  Each new abstract
    signature also bumps the [cov/abs_sigs] counter. *)
