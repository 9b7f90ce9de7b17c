(** Live one-line campaign status, derived from {!Journal.event}s.

    Install {!observe} as the journal writer's [observer]: every rendered
    figure then comes from an event that is already durably on disk, so
    the terminal line and the journal cannot disagree.  Heartbeats update
    per-worker state; the line (tests, tests/sec, verdict tallies, bugs,
    coverage, ETA) re-renders in place at most every [interval_ms]; the
    [Summary] event prints a final line and a newline. *)

type t

val create : ?out:out_channel -> ?interval_ms:float -> unit -> t
(** [out] defaults to [stderr]; [interval_ms] to [250.].  Timestamps come
    from the events themselves, not from a renderer-side clock. *)

val observe : t -> Journal.event -> unit

val finish : t -> unit
(** Terminate the in-place line with a newline if a summary never arrived
    (e.g. the campaign raised).  Idempotent. *)
