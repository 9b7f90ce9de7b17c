(** The seeded-bug registry: each bug class from the paper's §5.4 study is
    modelled as an injectable defect in the simulated compilers, guarded by
    {!enabled}.  The bug study (Table 3) measures which generator designs
    can trigger which classes.

    Invariant: a defect acts only where [enabled id] returns true.  A run
    that never consults a defect's guard therefore computes exactly what it
    computes with that defect off; {!record_consulted} reports which
    guards a run consulted. *)

type category = Transformation | Conversion | Unclassified
type effect = Crash | Semantic

type bug = {
  b_id : string;  (** unique key: "oxrt." / "lotus." / "trt." / "export." *)
  system : string;  (** "OxRT" | "Lotus" | "TRT" | "Exporter" *)
  category : category;
  effect : effect;
  description : string;
}

exception Compiler_bug of string
(** Raised by a compiler when a seeded crash defect fires; the message is
    the dedup key. *)

val catalogue : bug list
val find : string -> bug option

val set_active : string list -> unit
(** Raises [Invalid_argument] on unknown ids.  The active set is
    domain-local: a freshly spawned domain starts with no active faults and
    inherits the parent's set explicitly (see {!active_ids}). *)

val active_ids : unit -> string list
(** The calling domain's active set, sorted — capture before spawning a
    worker, [set_active] inside it. *)

val activate_all : unit -> unit
val deactivate_all : unit -> unit
val enabled : string -> bool
(** Whether the defect is in the calling domain's active set — the guard
    every seeded defect sits behind.  Inside a {!record_consulted} scope
    the id is recorded, whatever the answer. *)

val record_consulted : (unit -> 'a) -> 'a * string list
(** [record_consulted f] runs [f] and returns its result with the sorted
    ids whose guard ({!enabled}) [f] consulted on the calling domain.  The
    previous recording state is restored when [f] returns or raises; a
    nested scope's ids also count for the enclosing scope. *)

val with_bugs : string list -> (unit -> 'a) -> 'a
(** Run with exactly this active set, restoring the previous one after. *)

val crash : string -> string -> 'a
(** [crash b_id detail] raises {!Compiler_bug} with the canonical
    ["\[b_id\] detail"] message. *)

val category_name : category -> string
val effect_name : effect -> string
