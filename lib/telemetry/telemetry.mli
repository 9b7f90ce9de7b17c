(** Fuzzer-wide telemetry: named monotonic counters, log-scale histograms,
    hierarchical spans, a bounded ring of notable events, and snapshot export
    as a human-readable table or JSONL (one line per snapshot, stable key
    order).

    The registry keeps one private {e sink} per domain (domain-local
    storage): every layer — solver, generator, gradient search, harness —
    reports into the tables of the domain it runs on, with no hot-path
    synchronisation.  On a single domain this is indistinguishable from a
    process-global registry; worker domains spawned by
    [Nnsmith_parallel.Pool] accumulate locally and are folded into the
    spawning domain's sink at join time via {!merge_sink}.  All recording
    entry points are no-ops (no allocation, no clock read) while telemetry
    is disabled, and [reset] rewinds the current domain's sink for the next
    campaign. *)

val set_enabled : bool -> unit
(** Globally enable/disable recording (default: enabled).  Disabled paths
    cost one mutable-bool read. *)

val is_enabled : unit -> bool

val now_ms : unit -> float
(** The shared wall-clock helper, in milliseconds.  Campaigns, the gradient
    search and the benchmarks all read this one clock so their timestamps
    are comparable. *)

val reset : unit -> unit
(** Drop the current domain's counters, histograms, spans and events, and
    rewind its snapshot epoch.  Call at the start of each campaign (like
    [Coverage.reset]). *)

(** {1 Per-domain sinks}

    One sink per domain, created on first use.  A freshly spawned domain
    starts with empty tables; a finished worker's sink can be handed to the
    spawning domain and folded in with {!merge_sink}. *)

type sink
(** A domain's private telemetry tables. *)

val current_sink : unit -> sink
(** The calling domain's sink.  Hand it to another domain only after this
    domain has stopped recording (e.g. as a worker's return value). *)

val merge_sink : sink -> unit
(** Fold a quiescent worker sink into the calling domain's sink: counters,
    histogram buckets and span statistics are added; events are rebased
    onto this domain's epoch and appended through the ring.  Span {e self}
    times merge additively, so merged self-time sums CPU time across
    domains (it can exceed the wall clock). *)

(** {1 Counters} *)

val incr : ?by:int -> string -> unit
(** Bump a named monotonic counter (created on first use). *)

val counter_value : string -> int
(** Current value; [0] for a counter never bumped. *)

(** {1 Histograms}

    Log-scale histograms: the bucket with exponent [e] holds observations in
    [(2^(e-1), 2^e]]; exponents are clamped to [bucket_range].  Suitable for
    latencies in milliseconds and solver iteration counts. *)

val observe : string -> float -> unit
(** Record one observation into the named histogram (created on first
    use). *)

val bucket_exponent : float -> int
(** The (clamped) bucket exponent an observation falls into — exposed so
    tests can pin the bucket boundaries. *)

val bucket_range : int * int
(** Inclusive [(lo, hi)] exponent range; values outside are clamped. *)

(** {1 Spans}

    Hierarchical timed regions: [with_span "gen/insert_op" f] runs [f] and
    accumulates per-name count, total time and self time (total minus time
    spent in nested spans).  Re-entrant and exception-safe. *)

val with_span : string -> (unit -> 'a) -> 'a

(** {1 Event ring buffer}

    The last-N notable events (generation failures, solver timeouts, crash
    dedup keys, ...).  Oldest entries are evicted once the buffer is full. *)

val event : string -> string -> unit
(** [event kind msg] appends one event. *)

val set_ring_capacity : int -> unit
(** Resize the ring (default 64); drops currently buffered events. *)

(** {1 Snapshots and export} *)

type histo_view = {
  hv_count : int;
  hv_sum : float;
  hv_min : float;
  hv_max : float;
  hv_buckets : (int * int) list;  (** (bucket exponent, count); sorted *)
}

type span_view = { sv_count : int; sv_total_ms : float; sv_self_ms : float }

type event_view = {
  ev_seq : int;  (** monotonically increasing across evictions *)
  ev_at_ms : float;  (** relative to the last [reset] *)
  ev_kind : string;
  ev_msg : string;
}

type snapshot = {
  at_ms : float;  (** snapshot time relative to the last [reset] *)
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * histo_view) list;  (** sorted by name *)
  spans : (string * span_view) list;  (** sorted by name *)
  events : event_view list;  (** oldest first *)
}

val snapshot : unit -> snapshot

val to_jsonl : snapshot -> string
(** One JSON object on one line, keys in stable (sorted) order — suitable
    for appending to a [.jsonl] trajectory file. *)

val snapshot_of_jsonl : string -> (snapshot, string) result
(** Parse a line produced by {!to_jsonl} back into a snapshot. *)

val append_jsonl : string -> snapshot -> unit
(** Append [to_jsonl snapshot] plus a newline to the given file path. *)

type jsonl_read = {
  jr_snapshots : snapshot list;  (** in file order *)
  jr_errors : (int * string) list;  (** (1-based line, message) *)
}

val read_jsonl : string -> (jsonl_read, string) result
(** Parse a [.jsonl] trajectory file: good lines become snapshots, bad
    lines are reported with their line numbers (blank lines are skipped).
    [Error] only when the file cannot be opened.  The single reader shared
    by [nnsmith stats] and the dashboard. *)

val render_table : snapshot -> string
(** Human-readable table (the [nnsmith stats] output). *)
