(** The seeded-bug study behind Table 3: attribute each failure of a hunt
    ({!Pfuzz.hunt}) to the seeded defects that cause it, and tabulate the
    triggered defects by system and category. *)

val attribute_semantic :
  Systems.t ->
  Nnsmith_ir.Graph.t ->
  Nnsmith_ops.Runner.binding ->
  (string, int) Hashtbl.t ->
  unit
(** Attribute a semantic mismatch by re-running with each candidate
    semantic defect enabled in isolation, bumping the triggered table.
    (Used by {!Pfuzz.hunt}.) *)

val distribution :
  (string, int) Hashtbl.t ->
  (string * int * int * int * int * int) list
(** Table 3 rows restricted to a triggered set:
    [(system, transformation, conversion, unclassified, crash, semantic)]. *)
