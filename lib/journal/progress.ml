(** Live one-line campaign progress, derived exclusively from
    {!Journal.event}s: the renderer is an observer on the journal writer,
    so what the terminal shows and what the on-disk record says can never
    disagree.  Heartbeats update per-worker state; the line re-renders at
    most every [interval_ms]; the final summary prints once and ends the
    line. *)

type worker_state = {
  mutable ws_tests : int;
  mutable ws_at_ms : float;
  mutable ws_verdicts : (string * int) list;
  mutable ws_cov_total : int;
  mutable ws_cov_universe : int;
}

type t = {
  out : out_channel;
  interval_ms : float;
  workers : (int, worker_state) Hashtbl.t;
  mutable kind : string;
  mutable budget : Journal.budget option;
  mutable start_ms : float;  (* at_ms of the last Start event *)
  mutable bugs : int;  (* new cases *)
  mutable dups : int;
  mutable last_render_ms : float;
  mutable last_width : int;
  mutable done_ : bool;
}

let create ?(out = stderr) ?(interval_ms = 250.) () =
  {
    out;
    interval_ms;
    workers = Hashtbl.create 8;
    kind = "campaign";
    budget = None;
    start_ms = Float.nan;
    bugs = 0;
    dups = 0;
    last_render_ms = neg_infinity;
    last_width = 0;
    done_ = false;
  }

let worker t w =
  match Hashtbl.find_opt t.workers w with
  | Some ws -> ws
  | None ->
      let ws =
        {
          ws_tests = 0;
          ws_at_ms = 0.;
          ws_verdicts = [];
          ws_cov_total = 0;
          ws_cov_universe = 0;
        }
      in
      Hashtbl.replace t.workers w ws;
      ws

let sum t f = Hashtbl.fold (fun _ ws acc -> acc + f ws) t.workers 0

let merged_verdicts t =
  let tbl = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ ws ->
      List.iter
        (fun (k, n) ->
          Hashtbl.replace tbl k
            (n + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        ws.ws_verdicts)
    t.workers;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let fmt_eta seconds =
  if not (Float.is_finite seconds) then "-"
  else
    let s = int_of_float (Float.max 0. seconds) in
    if s >= 3600 then Printf.sprintf "%dh%02dm" (s / 3600) (s mod 3600 / 60)
    else if s >= 60 then Printf.sprintf "%dm%02ds" (s / 60) (s mod 60)
    else Printf.sprintf "%ds" s

(* Render the status line from the accumulated event state.  [at_ms] is the
   timestamp of the event that triggered the render — the clock of record
   is the journal's, not the terminal's. *)
let line t ~at_ms =
  let tests = sum t (fun ws -> ws.ws_tests) in
  let elapsed_s = Float.max 1e-9 ((at_ms -. t.start_ms) /. 1000.) in
  let rate = float_of_int tests /. elapsed_s in
  let verdicts = merged_verdicts t in
  let vstr =
    if verdicts = [] then ""
    else
      " | "
      ^ String.concat " "
          (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) verdicts)
  in
  (* Coverage union is not additive across domains; the max over workers is
     the live lower bound (exact when jobs = 1), the summary is exact. *)
  let cov =
    Hashtbl.fold (fun _ ws acc -> max acc ws.ws_cov_total) t.workers 0
  in
  let universe =
    Hashtbl.fold (fun _ ws acc -> max acc ws.ws_cov_universe) t.workers 0
  in
  let covstr =
    if universe = 0 then ""
    else
      Printf.sprintf " | cov %d (%.1f%%)" cov
        (100. *. float_of_int cov /. float_of_int universe)
  in
  let eta =
    match t.budget with
    | Some (Journal.B_tests n) when rate > 0. ->
        float_of_int (max 0 (n - tests)) /. rate
    | Some (Journal.B_time_ms b) -> (b -. (at_ms -. t.start_ms)) /. 1000.
    | _ -> infinity
  in
  Printf.sprintf "%s: %d tests %.1f/s%s | bugs %d (+%d dup)%s | eta %s"
    t.kind tests rate vstr t.bugs t.dups covstr (fmt_eta eta)

let show t s =
  (* Pad with spaces to wipe the previous, possibly longer, line. *)
  let pad = max 0 (t.last_width - String.length s) in
  Printf.fprintf t.out "\r%s%s%!" s (String.make pad ' ');
  t.last_width <- String.length s

let render ?(force = false) t ~at_ms =
  if (not t.done_) && (force || at_ms -. t.last_render_ms >= t.interval_ms)
  then begin
    t.last_render_ms <- at_ms;
    show t (line t ~at_ms)
  end

let observe t (ev : Journal.event) =
  match ev with
  | Journal.Start s ->
      t.kind <- s.s_kind;
      t.budget <- Some s.s_budget;
      t.start_ms <- s.s_at_ms;
      Hashtbl.reset t.workers;
      t.bugs <- 0;
      t.dups <- 0;
      t.done_ <- false;
      render ~force:true t ~at_ms:s.s_at_ms
  | Journal.Heartbeat h ->
      let ws = worker t h.h_worker in
      if Float.is_nan t.start_ms then t.start_ms <- h.h_at_ms;
      ws.ws_tests <- h.h_tests;
      ws.ws_at_ms <- h.h_at_ms;
      ws.ws_verdicts <- h.h_verdicts;
      ws.ws_cov_total <- h.h_cov_total;
      ws.ws_cov_universe <- h.h_cov_universe;
      render t ~at_ms:h.h_at_ms
  | Journal.Bug b ->
      if b.b_new then t.bugs <- t.bugs + 1 else t.dups <- t.dups + 1;
      render t ~at_ms:b.b_at_ms
  | Journal.Coverage _ | Journal.Op_stats _ | Journal.Dropped _
  | Journal.Shard_done _ ->
      ()
  | Journal.Worker_crash wc ->
      (* Worker deaths are filed as crash bundles by the supervisor, so the
         bug counter already moves; just force a re-render. *)
      render ~force:true t ~at_ms:wc.wc_at_ms
  | Journal.Resume rs ->
      (* Continue the line without resetting counters: heartbeats carry
         cumulative totals and will repopulate worker state. *)
      if Float.is_nan t.start_ms then t.start_ms <- rs.rs_at_ms;
      t.done_ <- false;
      render ~force:true t ~at_ms:rs.rs_at_ms
  | Journal.Summary f ->
      if not t.done_ then begin
        let covstr =
          if f.f_cov_total = 0 then ""
          else Printf.sprintf " | cov %d" f.f_cov_total
        in
        let s =
          Printf.sprintf
            "%s: %d tests %.1f/s | %s | bugs %d new, %d dup, %d distinct%s%s"
            t.kind f.f_tests f.f_tests_per_sec
            (String.concat " "
               (List.map
                  (fun (k, n) -> Printf.sprintf "%s=%d" k n)
                  f.f_verdicts))
            f.f_saved f.f_dups f.f_failures covstr
            (if f.f_dropped > 0 then
               Printf.sprintf " | DROPPED %d events" f.f_dropped
             else "")
        in
        show t s;
        Printf.fprintf t.out "\n%!";
        t.done_ <- true
      end

let finish t =
  if not t.done_ then begin
    if t.last_width > 0 then Printf.fprintf t.out "\n%!";
    t.done_ <- true
  end
