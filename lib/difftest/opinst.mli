(** Unique operator-instance accounting for the binning ablation
    (Figure 9): instances are distinguished by operator, attributes and
    input types. *)

type t

val create : unit -> t

val add : t -> Nnsmith_ir.Graph.t -> int
(** Record all operator instances of a model; returns how many were new. *)

val count : t -> int
