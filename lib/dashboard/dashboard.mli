(** Static HTML campaign dashboard.

    Renders one fully self-contained page — inline CSS, inline SVG
    sparklines, zero JavaScript — from the artefacts a campaign leaves on
    disk: the {!Nnsmith_journal.Journal} event log, the bug-report corpus
    ([index.jsonl] plus saved cases), an optional telemetry trajectory
    ([telemetry.jsonl]) and optional benchmark history
    ([bench/history.jsonl]).

    The page carries: campaign header tiles (kind, systems, seed, budget,
    tests/sec, bug counts), the bug-triage table (dedup key, op signature,
    trigger count, first/last seen, minimized size), coverage and
    throughput trend charts, a per-op-kind verdict heatmap, benchmark
    history, and a journal-health footer (torn tail, bad lines, dropped
    events).

    Aggregation is shared with the CLI — triage rows come from
    {!Nnsmith_corpus.Corpus.triage}, telemetry from
    {!Nnsmith_telemetry.Telemetry.read_jsonl} — so the dashboard and
    [nnsmith triage] can never disagree.  Every number is formatted
    through a finite-guard and chart points are filtered for finiteness,
    so ["NaN"] cannot appear anywhere in the output (the CI gate greps
    for it). *)

val of_dir :
  ?bench_dir:string -> ?refresh_secs:int -> ?now_ms:float -> string -> string
(** [of_dir dir] reads whatever campaign artefacts exist under [dir]
    (all optional — missing pieces render as empty-state notes, never
    errors) and returns the complete HTML document as a string.

    [bench_dir] (default ["."]) is where [bench/history.jsonl] is looked
    up when [dir] has no local bench history — typically the repository
    root.

    [refresh_secs] adds a [meta http-equiv="refresh"] tag, for watching a
    live campaign.  [now_ms] (default [Telemetry.now_ms ()]) is the clock
    the stale-heartbeat warning compares the journal against: a campaign
    with no concluding [Summary] whose last heartbeat is older than twice
    its own median heartbeat interval is flagged as possibly dead. *)
