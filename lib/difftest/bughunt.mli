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
    (Used by {!Pfuzz.hunt}.)

    A defect acts only where [Faults.enabled id] returns true, so a run
    that never consults its candidate's guard is the fault-free run.  The
    first such run's verdict stands for every later candidate whose guard
    it did not consult; only the others are re-run.  The table is the one
    a re-run of every candidate gives.  Counts [hunt/isolation_runs] and
    [hunt/isolation_skipped]. *)

val distribution :
  (string, int) Hashtbl.t ->
  (string * int * int * int * int * int) list
(** Table 3 rows restricted to a triggered set:
    [(system, transformation, conversion, unclassified, crash, semantic)]. *)
