(** Domain-based worker pool for sharded fuzzing campaigns.

    {!run} shards the global test-index stream 0,1,2,… across [jobs]
    worker domains (worker [w] runs indices [i] with [i mod jobs = w]);
    the seed of test [i] is {!Splitmix.derive}[ ~root ~index:i], so under
    a [Tests n] budget the executed workload is identical for every
    [jobs] value — only the schedule changes.

    Each worker accumulates telemetry and coverage in its own
    domain-local tables; at join they are folded into the caller's domain
    via [Telemetry.merge_sink] and [Coverage.absorb].  Only the calling
    domain invokes [sink] — making it safe for [sink] to write the
    bug-report corpus: with [jobs > 1] every emitted item reaches it
    through a single unbounded MPSC channel.

    [jobs = 1] runs inline on the calling domain with no spawn and no
    channel: [sink] is called synchronously after each test. *)

type budget =
  | Time_ms of float  (** wall-clock budget; workload not jobs-stable *)
  | Tests of int  (** exact global test count; jobs-independent workload *)

type worker_report = {
  wr_worker : int;
  wr_tests : int;
  wr_errors : int;  (** tests whose [test] callback raised *)
  wr_elapsed_ms : float;
}

type stats = {
  st_jobs : int;
  st_tests : int;
  st_errors : int;
  st_elapsed_ms : float;
  st_tests_per_sec : float;
  st_workers : worker_report list;
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run :
  ?jobs:int ->
  root_seed:int ->
  budget:budget ->
  init:(worker:int -> 'w) ->
  test:('w -> index:int -> seed:int -> 'f list) ->
  finish:('w -> 'r) ->
  sink:('f -> unit) ->
  unit ->
  stats * 'r list
(** [run ~jobs ~root_seed ~budget ~init ~test ~finish ~sink ()] spawns
    [jobs] workers (default {!default_jobs}; clamped to at least 1).
    Per worker: [init ~worker] builds its private state, [test] runs one
    index and returns that test's emitted items (sent to the channel), and
    [finish] — still on the worker domain, after its shard is exhausted —
    reduces the state to a result.  [sink] is called on the {e calling}
    domain for every emitted item, interleaved with the workers'
    progress; each worker's items arrive in its emission order, and none
    is ever dropped.

    Exceptions raised by [test] are counted in [wr_errors] and the shard
    continues; exceptions from [init]/[finish] kill that worker and are
    re-raised at join.  Returns aggregate stats and the workers' [finish]
    results in worker order. *)
