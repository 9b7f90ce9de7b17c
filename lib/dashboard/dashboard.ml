(** Static HTML campaign dashboard.

    One self-contained page — inline CSS, inline SVG, zero JavaScript —
    rendered from the artefacts a campaign leaves on disk: the event
    journal ([journal.jsonl]), the bug-report corpus ([index.jsonl] +
    cases), an optional telemetry trajectory and optional benchmark
    history.  Aggregation is shared with the CLI ([Corpus.triage],
    [Telemetry.read_jsonl], [Journal.read_file]); this module only lays
    the numbers out. *)

module Tel = Nnsmith_telemetry.Telemetry
module Journal = Nnsmith_journal.Journal
module Corpus = Nnsmith_corpus.Corpus
module History = Nnsmith_bench.History
module Metrics = Nnsmith_bench.Metrics

(* ------------------------------------------------------------------ *)
(* Gathered inputs                                                     *)

type triage_entry = { te_row : Corpus.triage_row; te_ops : string list }

type input = {
  in_title : string;
  in_journal : Journal.read_result option;
  in_triage : triage_entry list;
  in_corpus_size : int;
  in_telemetry : Tel.snapshot list;
  in_history : History.row list;  (** chronological *)
  in_refresh_secs : int option;  (** emit a meta-refresh tag *)
  in_now_ms : float;  (** staleness reference clock (injectable in tests) *)
}

(* ------------------------------------------------------------------ *)
(* Small helpers: escaping and NaN-proof formatting                    *)

let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Every number that reaches the page goes through one of these, so a
   non-finite value can never leak into text or an SVG path. *)
let fmt_f ?(decimals = 1) x =
  if Float.is_finite x then Printf.sprintf "%.*f" decimals x else "–"

let fmt_i = string_of_int

(* ------------------------------------------------------------------ *)
(* SVG sparkline                                                       *)

(* A single-series line chart as inline SVG.  Non-finite points are
   filtered before layout; fewer than two finite points degrades to a
   textual note, so no chart ever contains a NaN coordinate. *)
let sparkline ?(w = 620.) ?(h = 120.) ~css_class points =
  let pts =
    List.filter (fun (x, y) -> Float.is_finite x && Float.is_finite y) points
  in
  match pts with
  | [] | [ _ ] ->
      Printf.sprintf
        "<p class=\"muted\">not enough data points to chart (%d)</p>"
        (List.length pts)
  | _ ->
      let xs = List.map fst pts and ys = List.map snd pts in
      let fmin = List.fold_left Float.min infinity
      and fmax = List.fold_left Float.max neg_infinity in
      let x0 = fmin xs and x1 = fmax xs in
      let y0 = Float.min 0. (fmin ys) and y1 = fmax ys in
      let xspan = if x1 -. x0 > 0. then x1 -. x0 else 1. in
      let yspan = if y1 -. y0 > 0. then y1 -. y0 else 1. in
      let pad = 6. in
      let px x = pad +. ((x -. x0) /. xspan *. (w -. (2. *. pad))) in
      let py y = h -. pad -. ((y -. y0) /. yspan *. (h -. (2. *. pad))) in
      let path =
        String.concat " "
          (List.map
             (fun (x, y) -> Printf.sprintf "%.1f,%.1f" (px x) (py y))
             pts)
      in
      Printf.sprintf
        "<svg viewBox=\"0 0 %.0f %.0f\" role=\"img\" \
         preserveAspectRatio=\"none\" class=\"spark\">\
         <polyline class=\"%s\" fill=\"none\" stroke-width=\"2\" \
         points=\"%s\"/></svg>\
         <div class=\"axis-note\"><span>%s</span><span>max %s</span></div>"
        w h css_class path
        (fmt_f ~decimals:0 y0)
        (fmt_f ~decimals:0 y1)

(* The always-available table view behind each chart (works without JS). *)
let data_table ~summary headers rows =
  let b = Buffer.create 256 in
  Printf.bprintf b "<details><summary>%s</summary><table><thead><tr>"
    (esc summary);
  List.iter (fun h -> Printf.bprintf b "<th>%s</th>" (esc h)) headers;
  Buffer.add_string b "</tr></thead><tbody>";
  List.iter
    (fun row ->
      Buffer.add_string b "<tr>";
      List.iter (fun c -> Printf.bprintf b "<td>%s</td>" (esc c)) row;
      Buffer.add_string b "</tr>")
    rows;
  Buffer.add_string b "</tbody></table></details>";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Journal-derived series                                              *)

let journal_events input =
  match input.in_journal with Some r -> r.Journal.events | None -> []

(* [Start]'s and [Summary]'s payloads are inline records, which cannot
   escape a match — project the fields we show into plain tuples. *)
let find_start input =
  List.find_map
    (function
      | Journal.Start s ->
          Some
            ( s.s_kind,
              s.s_systems,
              s.s_generator,
              s.s_root_seed,
              s.s_jobs,
              s.s_budget )
      | _ -> None)
    (journal_events input)

let find_summary input =
  (* the last summary wins: a resumed campaign appends a fresh one *)
  List.fold_left
    (fun acc ev ->
      match ev with
      | Journal.Summary f ->
          Some
            ( f.f_tests,
              f.f_tests_per_sec,
              f.f_failures,
              f.f_saved,
              f.f_dups,
              f.f_cov_total )
      | _ -> acc)
    None (journal_events input)

let coverage_series input =
  let explicit =
    List.filter_map
      (function
        | Journal.Coverage c ->
            Some (float_of_int c.c_tests, float_of_int c.c_total)
        | _ -> None)
      (journal_events input)
  in
  match explicit with
  | _ :: _ :: _ -> explicit
  | _ ->
      (* Sequential campaigns stream [Coverage] events; the sharded
         drivers emit one final union.  Fall back to heartbeats there:
         x = campaign-wide tests (sum of last-known per-worker counts),
         y = the largest per-worker domain-local table (a lower bound on
         the union — the same figure the live progress line shows). *)
      let tests = Hashtbl.create 8 and covs = Hashtbl.create 8 in
      let out = ref [] in
      List.iter
        (function
          | Journal.Heartbeat h ->
              Hashtbl.replace tests h.h_worker h.h_tests;
              Hashtbl.replace covs h.h_worker h.h_cov_total;
              let total = Hashtbl.fold (fun _ n acc -> acc + n) tests 0 in
              let cov = Hashtbl.fold (fun _ n acc -> max n acc) covs 0 in
              out := (float_of_int total, float_of_int cov) :: !out
          | _ -> ())
        (journal_events input);
      List.rev_append !out explicit

(* Throughput from heartbeats: at each heartbeat, total tests = the sum of
   every worker's last-reported cumulative count; the series is the rate
   between consecutive totals. *)
let throughput_series input =
  let per_worker = Hashtbl.create 8 in
  let totals = ref [] in
  List.iter
    (function
      | Journal.Heartbeat h ->
          Hashtbl.replace per_worker h.h_worker h.h_tests;
          let total = Hashtbl.fold (fun _ n acc -> acc + n) per_worker 0 in
          totals := (h.h_at_ms, total) :: !totals
      | _ -> ())
    (journal_events input);
  let rec rates acc = function
    | (t1, n1) :: ((t0, n0) :: _ as rest) ->
        let dt = (t1 -. t0) /. 1000. in
        if dt > 0. then
          rates ((t1, float_of_int (n1 - n0) /. dt) :: acc) rest
        else rates acc rest
    | _ -> List.rev acc
  in
  (* !totals is newest-first *)
  rates [] !totals

let bug_timeline input =
  List.filter_map
    (function
      | Journal.Bug b when b.b_new -> Some (b.b_at_ms, b.b_key)
      | _ -> None)
    (journal_events input)

let op_stats input =
  List.fold_left
    (fun acc ev -> match ev with Journal.Op_stats o -> Some o.o_ops | _ -> acc)
    None (journal_events input)

(* ------------------------------------------------------------------ *)
(* Page sections                                                       *)

let section b title body =
  Printf.bprintf b "<section><h2>%s</h2>%s</section>" (esc title) body

let stat_tile label value =
  Printf.sprintf
    "<div class=\"tile\"><div class=\"tile-value\">%s</div>\
     <div class=\"tile-label\">%s</div></div>"
    (esc value) (esc label)

let budget_to_string = function
  | Journal.B_tests n -> Printf.sprintf "%d tests" n
  | Journal.B_time_ms m -> Printf.sprintf "%s s" (fmt_f (m /. 1000.))

let header_section b input =
  let tiles = Buffer.create 256 in
  (match find_start input with
  | Some (kind, systems, generator, root_seed, jobs, budget) ->
      Printf.bprintf tiles "%s"
        (stat_tile "campaign" kind
        ^ stat_tile "systems" (String.concat ", " systems)
        ^ stat_tile "generator" generator
        ^ stat_tile "seed" (fmt_i root_seed)
        ^ stat_tile "jobs" (fmt_i jobs)
        ^ stat_tile "budget" (budget_to_string budget))
  | None -> ());
  (match find_summary input with
  | Some (tests, tps, failures, saved, dups, cov_total) ->
      Printf.bprintf tiles "%s"
        (stat_tile "tests" (fmt_i tests)
        ^ stat_tile "tests/sec" (fmt_f tps)
        ^ stat_tile "distinct failures" (fmt_i failures)
        ^ stat_tile "cases saved" (fmt_i saved)
        ^ stat_tile "duplicates" (fmt_i dups)
        ^ stat_tile "coverage" (fmt_i cov_total))
  | None -> ());
  if Buffer.length tiles > 0 then
    section b "Campaign" ("<div class=\"tiles\">" ^ Buffer.contents tiles ^ "</div>")

let triage_section b input =
  if input.in_triage = [] then
    section b "Bug triage" "<p class=\"muted\">no saved cases</p>"
  else begin
    let body = Buffer.create 1024 in
    Buffer.add_string body
      "<table><thead><tr><th>hits</th><th>system</th><th>verdict</th>\
       <th>nodes</th><th>first</th><th>last</th><th>case</th>\
       <th>op signature</th><th>dedup key</th></tr></thead><tbody>";
    List.iter
      (fun { te_row = r; te_ops } ->
        Printf.bprintf body
          "<tr><td>%d</td><td>%s</td><td><span class=\"verdict verdict-%s\">\
           %s</span></td><td>%d</td><td>#%d</td><td>#%d</td>\
           <td><code>%s</code></td><td>%s</td><td><code>%s</code></td></tr>"
          r.tr_count (esc r.tr_system) (esc r.tr_verdict) (esc r.tr_verdict)
          r.tr_nodes r.tr_first r.tr_last (esc r.tr_case_id)
          (esc (String.concat ", " te_ops))
          (esc r.tr_key))
      input.in_triage;
    Buffer.add_string body "</tbody></table>";
    Printf.bprintf body
      "<p class=\"muted\">%d distinct failure(s), %d case(s) on disk; \
       first/last are index positions (cases + duplicates, all runs)</p>"
      (List.length input.in_triage) input.in_corpus_size;
    section b "Bug triage" (Buffer.contents body)
  end

let coverage_section b input =
  let pts = coverage_series input in
  if pts = [] then ()
  else
    let chart = sparkline ~css_class:"series-cov" pts in
    let table =
      data_table ~summary:"coverage data" [ "tests"; "sites" ]
        (List.map
           (fun (x, y) -> [ fmt_f ~decimals:0 x; fmt_f ~decimals:0 y ])
           pts)
    in
    section b "Coverage trend (sites vs tests)" (chart ^ table)

let throughput_section b input =
  let pts = throughput_series input in
  if pts = [] then ()
  else
    let t0 = List.fold_left (fun a (x, _) -> Float.min a x) infinity pts in
    let rel = List.map (fun (x, y) -> ((x -. t0) /. 1000., y)) pts in
    let chart = sparkline ~css_class:"series-rate" rel in
    let table =
      data_table ~summary:"throughput data" [ "t (s)"; "tests/sec" ]
        (List.map (fun (x, y) -> [ fmt_f x; fmt_f y ]) rel)
    in
    section b "Throughput (tests/sec over time)" (chart ^ table)

(* Sequential blue ramp (light steps 100..700) for the heatmap; counts
   stay visible in every cell, so color never carries the value alone. *)
let heat_bins =
  [| "#cde2fb"; "#9ec5f4"; "#6da7ec"; "#3987e5"; "#1c5cab"; "#0d366b" |]

let heat_cell ~max_count n =
  if n = 0 then "<td class=\"heat-zero\">0</td>"
  else begin
    let frac = float_of_int n /. float_of_int (max 1 max_count) in
    let bin =
      min (Array.length heat_bins - 1)
        (int_of_float (frac *. float_of_int (Array.length heat_bins)))
    in
    let light_text = bin >= 3 in
    Printf.sprintf
      "<td class=\"heat\" style=\"background:%s;color:%s\">%d</td>"
      heat_bins.(bin)
      (if light_text then "#ffffff" else "#0b0b0b")
      n
  end

let heatmap_section b input =
  match op_stats input with
  | None | Some [] -> ()
  | Some ops ->
      let verdict_kinds =
        List.sort_uniq compare
          (List.concat_map (fun (_, vs) -> List.map fst vs) ops)
      in
      let max_count =
        List.fold_left
          (fun acc (_, vs) ->
            List.fold_left (fun acc (_, n) -> max acc n) acc vs)
          0 ops
      in
      let body = Buffer.create 1024 in
      Buffer.add_string body "<table class=\"heatmap\"><thead><tr><th>op</th>";
      List.iter
        (fun v -> Printf.bprintf body "<th>%s</th>" (esc v))
        verdict_kinds;
      Buffer.add_string body "</tr></thead><tbody>";
      List.iter
        (fun (op, vs) ->
          Printf.bprintf body "<tr><th>%s</th>" (esc op);
          List.iter
            (fun v ->
              let n = Option.value ~default:0 (List.assoc_opt v vs) in
              Buffer.add_string body (heat_cell ~max_count n))
            verdict_kinds;
          Buffer.add_string body "</tr>")
        ops;
      Buffer.add_string body "</tbody></table>";
      Printf.bprintf body
        "<p class=\"muted\">cell = op occurrences in tests with that \
         verdict; darker is more</p>";
      section b "Verdicts by op kind" (Buffer.contents body)

let bugs_section b input =
  let bugs = bug_timeline input in
  if bugs = [] then ()
  else
    let t0 = List.fold_left (fun a (x, _) -> Float.min a x) infinity bugs in
    let rows =
      List.map
        (fun (at, key) -> [ fmt_f ((at -. t0) /. 1000.); key ])
        bugs
    in
    section b "New bugs over time"
      (data_table ~summary:(Printf.sprintf "%d new case(s)" (List.length bugs))
         [ "t (s)"; "dedup key" ] rows)

let telemetry_section b input =
  match List.rev input.in_telemetry with
  | [] -> ()
  | last :: _ ->
      let interesting =
        List.filter
          (fun (k, _) ->
            List.exists
              (fun p ->
                String.length k >= String.length p
                && String.sub k 0 (String.length p) = p)
              [
                "journal/"; "parallel/"; "corpus/"; "exec/"; "cov/";
                "smt/prescreen/";
              ])
          last.Tel.counters
      in
      (* derived pre-screening rates: screened probes never reach the check
         machinery, so concrete + unsat is exactly the solver calls the
         screen avoided *)
      let c k = Option.value ~default:0 (List.assoc_opt k last.Tel.counters) in
      let screened =
        c "smt/prescreen/concrete" + c "smt/prescreen/unsat"
      in
      let attempts = screened + c "smt/prescreen/miss" in
      let derived =
        if attempts = 0 then []
        else
          [
            [ "prescreen solver calls avoided"; fmt_i screened ];
            [
              "prescreen hit rate";
              Printf.sprintf "%.1f%%"
                (100. *. float_of_int screened /. float_of_int attempts);
            ];
          ]
      in
      let rows = List.map (fun (k, v) -> [ k; fmt_i v ]) interesting @ derived in
      if rows = [] then ()
      else
        section b "Telemetry counters (last snapshot)"
          (data_table ~summary:"counters" [ "counter"; "value" ] rows)

let bench_section b input =
  if input.in_history = [] then ()
  else begin
    let body = Buffer.create 1024 in
    let by_exp = Hashtbl.create 8 in
    List.iter
      (fun (r : History.row) ->
        Hashtbl.replace by_exp r.History.hr_experiment
          (r
          :: Option.value ~default:[]
               (Hashtbl.find_opt by_exp r.History.hr_experiment)))
      (List.rev input.in_history);
    (* insertion order of experiments, chronological rows *)
    let exps =
      List.sort_uniq compare
        (List.map
           (fun (r : History.row) -> r.History.hr_experiment)
           input.in_history)
    in
    List.iter
      (fun exp ->
        let rows = Option.value ~default:[] (Hashtbl.find_opt by_exp exp) in
        let pts =
          List.mapi
            (fun i (r : History.row) ->
              (float_of_int i, r.History.hr_tests_per_sec))
            rows
        in
        (* counter trend: allocation words per run, from schema-2 rows *)
        let alloc_pts =
          List.mapi
            (fun i (r : History.row) ->
              Option.map
                (fun c -> (float_of_int i, Metrics.alloc_words c))
                r.History.hr_counters)
            rows
          |> List.filter_map Fun.id
        in
        (* a row whose parent is not the previous row's commit marks a gap
           in per-commit history: commits passed without a bench run *)
        let gaps =
          let prev = ref None in
          List.map
            (fun (r : History.row) ->
              let gap =
                match (!prev, r.History.hr_parent) with
                | Some p, Some parent -> parent <> p
                | Some _, None | None, _ -> false
              in
              prev := Some r.History.hr_commit;
              gap)
            rows
        in
        Printf.bprintf body "<h3>%s</h3>%s%s%s" (esc exp)
          (sparkline ~h:80. ~css_class:"series-rate" pts)
          (if alloc_pts = [] then ""
           else sparkline ~h:80. ~css_class:"series-alloc" alloc_pts)
          (data_table ~summary:"runs"
             [ "commit"; "parent"; "tests/sec"; "alloc words"; "digest" ]
             (List.map2
                (fun (r : History.row) gap ->
                  [
                    (r.History.hr_commit
                    ^ if gap then " (gap: commits unbenched)" else "");
                    Option.value ~default:"–" r.History.hr_parent;
                    fmt_f r.History.hr_tests_per_sec;
                    (match r.History.hr_counters with
                    | Some c -> fmt_f ~decimals:0 (Metrics.alloc_words c)
                    | None -> "–");
                    r.History.hr_digest;
                  ])
                rows gaps)))
      exps;
    section b "Benchmark history" (Buffer.contents body)
  end

(* A campaign that stopped heartbeating without writing a [Summary] is
   possibly dead (wedged, killed, or awaiting [--resume]).  The expected
   cadence is estimated from the journal itself — the median gap between
   consecutive heartbeats, floored at the writers' 250 ms rate limit — so
   no configuration has to be plumbed in. *)
let stale_heartbeat input =
  match input.in_journal with
  | None -> None
  | Some r ->
      let hbs =
        List.filter_map
          (function Journal.Heartbeat h -> Some h.h_at_ms | _ -> None)
          r.Journal.events
      in
      let last_summary =
        List.fold_left
          (fun acc ev ->
            match ev with
            | Journal.Summary f -> Float.max acc f.f_at_ms
            | _ -> acc)
          neg_infinity r.Journal.events
      in
      match List.rev hbs with
      | [] -> None
      | last :: _ when last_summary >= last -> None  (* campaign concluded *)
      | last :: _ ->
          let gaps =
            let rec go acc = function
              | a :: (b :: _ as rest) -> go ((b -. a) :: acc) rest
              | _ -> acc
            in
            List.sort compare (go [] hbs)
          in
          let median =
            match gaps with
            | [] -> 250.
            | _ -> List.nth gaps (List.length gaps / 2)
          in
          let interval = Float.max 250. median in
          let age = input.in_now_ms -. last in
          if age > 2. *. interval then Some (age, interval) else None

let journal_health_section b input =
  match input.in_journal with
  | None -> section b "Journal" "<p class=\"muted\">no journal found</p>"
  | Some r ->
      let dropped =
        List.fold_left
          (fun acc ev ->
            match ev with Journal.Dropped d -> acc + d.d_count | _ -> acc)
          0 r.Journal.events
      in
      let worker_crashes =
        List.fold_left
          (fun acc ev ->
            match ev with Journal.Worker_crash _ -> acc + 1 | _ -> acc)
          0 r.Journal.events
      in
      let warn cond msg =
        if cond then Printf.sprintf "<p class=\"warn\">&#9888; %s</p>" msg
        else ""
      in
      section b "Journal health"
        (Printf.sprintf
           "<p>%d event(s)%s</p>%s%s%s%s%s"
           (List.length r.Journal.events)
           (if r.Journal.torn_tail then
              " — final line torn (process killed mid-write); all \
               preceding events intact"
            else "")
           (warn (dropped > 0)
              (Printf.sprintf
                 "%d best-effort event(s) dropped at a saturated channel"
                 dropped))
           (warn
              (r.Journal.bad_lines > 0)
              (Printf.sprintf "%d unparseable non-final line(s) skipped"
                 r.Journal.bad_lines))
           (warn r.Journal.torn_tail "torn tail tolerated on read")
           (warn (worker_crashes > 0)
              (Printf.sprintf
                 "%d worker crash(es) filed; the supervisor restarted the \
                  affected shard(s)"
                 worker_crashes))
           (match stale_heartbeat input with
           | None -> ""
           | Some (age, interval) ->
               warn true
                 (Printf.sprintf
                    "campaign possibly dead: last heartbeat %s s ago, \
                     expected every ~%s s — resume with <code>nnsmith \
                     fleet --resume</code> if it was killed"
                    (fmt_f (age /. 1000.))
                    (fmt_f (interval /. 1000.)))))

(* ------------------------------------------------------------------ *)
(* CSS: palette tokens (light + dark) and layout                       *)

let css =
  {|:root { color-scheme: light; }
body {
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #3c9a5f;
  --warn: #ec835a;
  margin: 0; padding: 1.5rem; background: var(--page);
  color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px; line-height: 1.45;
}
@media (prefers-color-scheme: dark) {
  :root { color-scheme: dark; }
  body {
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --grid: #2c2c2a; --baseline: #383835;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #3fae6a;
  }
}
h1 { font-size: 1.3rem; margin: 0 0 1rem; }
h2 { font-size: 1.05rem; margin: 0 0 .75rem; color: var(--text-secondary); }
h3 { font-size: .95rem; margin: 1rem 0 .25rem; }
section {
  background: var(--surface-1); border: 1px solid var(--grid);
  border-radius: 8px; padding: 1rem 1.25rem; margin-bottom: 1rem;
}
.tiles { display: flex; flex-wrap: wrap; gap: 1rem; }
.tile { min-width: 7rem; }
.tile-value { font-size: 1.35rem; }
.tile-label { color: var(--muted); font-size: .8rem; }
table { border-collapse: collapse; margin-top: .5rem; }
th, td {
  text-align: left; padding: .25rem .6rem;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
thead th { color: var(--muted); font-weight: 500; }
code { font-size: .85em; }
.muted { color: var(--muted); }
.warn { color: var(--warn); }
.spark { width: 100%; height: 120px; display: block; }
.series-cov { stroke: var(--series-1); }
.series-rate { stroke: var(--series-2); }
.series-alloc { stroke: var(--series-3); }
.axis-note {
  display: flex; justify-content: space-between;
  color: var(--muted); font-size: .75rem;
}
.heatmap td.heat, .heatmap td.heat-zero { text-align: right; }
.heatmap td.heat-zero { color: var(--muted); }
details summary { cursor: pointer; color: var(--muted); margin-top: .4rem; }
.verdict-crash { color: #d03b3b; }
.verdict-semantic { color: #ec835a; }
footer { color: var(--muted); font-size: .8rem; }
|}

let render (input : input) : string =
  let b = Buffer.create 16384 in
  Printf.bprintf b
    "<!DOCTYPE html>\n\
     <html lang=\"en\"><head><meta charset=\"utf-8\">\n\
     <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n\
     %s<title>%s</title>\n<style>%s</style></head>\n<body>\n<h1>%s</h1>\n"
    (match input.in_refresh_secs with
    | Some n when n > 0 ->
        Printf.sprintf "<meta http-equiv=\"refresh\" content=\"%d\">\n" n
    | _ -> "")
    (esc input.in_title) css (esc input.in_title);
  header_section b input;
  triage_section b input;
  heatmap_section b input;
  coverage_section b input;
  throughput_section b input;
  bugs_section b input;
  telemetry_section b input;
  bench_section b input;
  journal_health_section b input;
  Buffer.add_string b
    "<footer>static nnsmith dashboard — no scripts, safe to archive</footer>\n\
     </body></html>\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Gathering from a campaign directory                                 *)

let load_history path = (History.read path).History.rr_rows

let of_dir ?(bench_dir = ".") ?refresh_secs ?now_ms dir : string =
  let journal =
    let path = Journal.in_dir dir in
    if Sys.file_exists path then
      match Journal.read_file path with Ok r -> Some r | Error _ -> None
    else None
  in
  let triage, corpus_size =
    if Sys.file_exists (Filename.concat dir "index.jsonl") then
      match Corpus.open_ dir with
      | exception Corpus.Corpus_error _ -> ([], 0)
      | corpus ->
          ( List.map
              (fun (r : Corpus.triage_row) ->
                let ops =
                  match Corpus.load_graph corpus r.tr_case_id with
                  | g -> Corpus.op_signature g
                  | exception _ -> []
                in
                { te_row = r; te_ops = ops })
              (Corpus.triage corpus),
            Corpus.size corpus )
    else ([], 0)
  in
  let telemetry =
    let path = Filename.concat dir "telemetry.jsonl" in
    if Sys.file_exists path then
      match Tel.read_jsonl path with
      | Ok r -> r.Tel.jr_snapshots
      | Error _ -> []
    else []
  in
  let history =
    let local = Filename.concat dir (Filename.concat "bench" "history.jsonl") in
    let shared =
      Filename.concat bench_dir (Filename.concat "bench" "history.jsonl")
    in
    match load_history local with [] -> load_history shared | rows -> rows
  in
  render
    {
      in_title = "nnsmith campaign — " ^ dir;
      in_journal = journal;
      in_triage = triage;
      in_corpus_size = corpus_size;
      in_telemetry = telemetry;
      in_history = history;
      in_refresh_secs = refresh_secs;
      in_now_ms = (match now_ms with Some t -> t | None -> Tel.now_ms ());
    }
