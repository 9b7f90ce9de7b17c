(** Per-commit benchmark history: the versioned row schema behind
    [bench/history.jsonl] and [bench/latest.json], a torn-tail-tolerant
    reader, and the counter-based regression gate.

    Every appending bench experiment records one {!row} per run.  Schema
    version 2 rows carry the commit {e and its parent} (so the dashboard
    can mark gaps in per-commit history), a workload key (rows are only
    comparable at identical workloads), and the deterministic
    {!Metrics.counters} captured for the experiment.  Version 1 rows —
    everything recorded before the counter era — are still read: they
    simply have no workload, parent or counters, and the gate skips them
    with a note instead of failing.

    The regress gate inverts the old wall-clock discipline: work counters
    must match the baseline row {e exactly}, allocation words may grow by
    at most {!alloc_tolerance}, and tests/sec is demoted to a non-gating
    advisory column.  A deliberate perf-relevant change therefore shows up
    as a gate failure until the new history row is committed — the
    snapshot-test workflow, made sound by counter determinism. *)

type row = {
  hr_schema : int;  (** 1 for legacy rows, {!schema_version} for new ones *)
  hr_commit : string;
  hr_parent : string option;  (** parent commit; [None] on legacy rows *)
  hr_experiment : string;
  hr_workload : string option;
      (** comparability key, e.g. ["tests=80"]; rows with different
          workloads are never compared *)
  hr_tests_per_sec : float;  (** advisory wall-clock throughput *)
  hr_digest : string;  (** workload outcome digest (bit-identity check) *)
  hr_counters : Metrics.counters option;  (** deterministic work counters *)
}

val schema_version : int
(** Current row schema version: [2]. *)

val make_row :
  ?counters:Metrics.counters ->
  ?workload:string ->
  experiment:string ->
  tests_per_sec:float ->
  digest:string ->
  unit ->
  row
(** A {!schema_version} row stamped with the current git commit and its
    parent (["unknown"] / [None] outside a git checkout). *)

val row_to_json : row -> Nnsmith_telemetry.Json.t

val row_of_json : Nnsmith_telemetry.Json.t -> row option
(** [None] when the mandatory fields ([experiment], [tests_per_sec]) are
    missing.  Rows with no [schema] field parse as version 1; rows from
    future schema versions are read best-effort rather than dropped.
    Unknown fields are ignored, among them the per-test GC words
    ([gc_minor_per_test], [gc_major_per_test]) that rows written before
    the counter capture took over still carry. *)

type read_result = {
  rr_rows : row list;  (** parsed rows, file order (= chronological) *)
  rr_bad_lines : int;  (** non-final unparseable/invalid lines skipped *)
  rr_torn_tail : bool;
      (** final line was not complete JSON (writer killed mid-append);
          all preceding rows are intact and kept *)
}

val read : string -> read_result
(** Tolerant reader, mirroring the journal's discipline: a missing file is
    an empty history, a torn final line is reported but never poisons the
    intact prefix, and bad interior lines are counted and skipped. *)

val append : dir:string -> row -> unit
(** Append the row to [dir/history.jsonl] and rewrite [dir/latest.json] to
    hold one row per experiment for the row's commit (a new commit's first
    experiment resets the file).  Creates [dir] if needed. *)

(** {1 The regression gate} *)

val alloc_tolerance : float
(** Maximum allowed relative growth in allocation words vs baseline:
    [0.02] (2%). *)

type status =
  [ `Ok  (** within the gate (possibly with advisory notes) *)
  | `Regressed of string list  (** gate failures, one message each *)
  | `Skipped of string  (** no comparable baseline; reason given *) ]

type verdict = {
  v_experiment : string;
  v_workload : string option;
  v_status : status;
  v_notes : string list;  (** advisory, non-gating observations *)
}

val regress : ?known:string list -> row list -> verdict list
(** Compare each experiment's newest row against its baseline: the newest
    earlier row with the same experiment and workload key and a different
    commit (preferring rows that carry counters).  A row stamped with the
    current row's commit is a re-run of the same code, so a local re-run
    can never become the baseline of the row it repeats: the baseline is
    the last row recorded at an earlier commit, i.e. the committed one.
    Gate: work counters exactly equal; allocation words within
    {!alloc_tolerance} growth.  Wall-clock deltas and counter-set changes
    (keys added/removed) are reported as notes, and so is a fall in
    allocation past the tolerance, whose note asks for the row to be
    re-recorded.

    Rows whose experiment is not in [known] (when given) are skipped with
    a warning — a renamed or retired experiment must not fail the gate
    forever.  Rows in any [`Skipped] state never fail the gate. *)
