(** Crash-tolerant multi-process campaign supervisor.

    The NNSmith pipeline is index-pure — test [i]'s entire behaviour
    derives from [Splitmix.derive ~root ~index:i] — so the fleet shards
    the index space by residue class ([shard w] runs [i mod shards = w]),
    spawns one OS process per shard on the campaign binary's hidden
    [fleet-worker] mode, and reads length-prefixed {!Proto} frames from
    each worker's pipe.

    The supervisor is the only process that writes campaign state (corpus,
    journal, checkpoint): worker outcomes go through the domain pool's
    {!Pfuzz.Ledger}, which applies them one at a time in strict global
    index order, so a single [applied] high-water mark captures progress
    exactly.  The periodic {!Checkpoint} records that mark plus the corpus
    index length; {!run}[ ~resume:true] truncates [index.jsonl] back to
    the checkpoint (undoing un-checkpointed appends) and deterministically
    re-runs indices [>= applied] — the resumed campaign's corpus, coverage
    and failure keys are byte-identical to an uninterrupted run's.

    Worker death is a test outcome, not a campaign failure: a one-crash
    outcome is offered at the index the worker was presumed to be running,
    filed in the corpus as a [Crash] with the offending derived seed, and
    the shard restarts past it under bounded exponential backoff.
    SIGTERM/SIGINT drain workers gracefully and leave a resumable
    checkpoint. *)

module Cov = Nnsmith_coverage.Coverage
module Tel = Nnsmith_telemetry.Telemetry
module Json = Nnsmith_telemetry.Json
module Journal = Nnsmith_journal.Journal
module Progress = Nnsmith_journal.Progress
module Splitmix = Nnsmith_parallel.Splitmix
module Systems = Nnsmith_difftest.Systems
module Harness = Nnsmith_difftest.Harness
module Pfuzz = Nnsmith_difftest.Pfuzz
module Faults = Nnsmith_faults.Faults
module Gen = Nnsmith_core.Gen
module Config = Nnsmith_core.Config
module Graph = Nnsmith_ir.Graph
module Dashboard = Nnsmith_dashboard.Dashboard

type kind = Fuzz | Hunt

let kind_name = function Fuzz -> "fuzz" | Hunt -> "hunt"

let kind_of_name = function
  | "fuzz" -> Ok Fuzz
  | "hunt" -> Ok Hunt
  | k -> Error (Printf.sprintf "unknown campaign kind %S" k)

type config = {
  fc_dir : string;
  fc_kind : kind;
  fc_systems : Systems.t list;
  fc_faults : string list;
  fc_root_seed : int;
  fc_shards : int;
  fc_tests : int;
  fc_max_nodes : int;
  fc_binning : bool;
  fc_exe : string;  (** binary to spawn workers on (usually self) *)
  fc_argv : string list;  (** worker argv marker, e.g. ["fleet-worker"] *)
  fc_heartbeat_timeout_ms : float;
  fc_checkpoint_every : int;  (** applied tests between checkpoints *)
  fc_max_restarts : int;  (** consecutive deaths before abandoning *)
  fc_backoff_base_ms : float;
  fc_backoff_max_ms : float;
  fc_progress : bool;
  fc_dashboard_every_ms : float;  (** [<= 0] disables live regeneration *)
  fc_stop_after_applied : int option;
      (** test hook: simulate a supervisor power cut — SIGKILL the workers
          and return without a final checkpoint once this many tests have
          been applied *)
}

let default_config ~dir ~tests =
  {
    fc_dir = dir;
    fc_kind = Fuzz;
    fc_systems = Systems.all;
    fc_faults = [];
    fc_root_seed = 42;
    fc_shards = Nnsmith_parallel.Pool.default_jobs ();
    fc_tests = tests;
    fc_max_nodes = 10;
    fc_binning = true;
    fc_exe = Sys.executable_name;
    fc_argv = [ "fleet-worker" ];
    fc_heartbeat_timeout_ms = 30_000.;
    fc_checkpoint_every = 25;
    fc_max_restarts = 5;
    fc_backoff_base_ms = 100.;
    fc_backoff_max_ms = 5_000.;
    fc_progress = false;
    fc_dashboard_every_ms = 0.;
    fc_stop_after_applied = None;
  }

type summary = {
  fs_kind : kind;
  fs_tests : int;  (** total indices applied, all sessions *)
  fs_session_tests : int;  (** applied by this invocation *)
  fs_shards : int;
  fs_verdicts : (string * int) list;
  fs_crashes : (string * int) list;
  fs_failure_keys : string list;
  fs_triggered : (string * int) list;
  fs_ops : (string * (string * int) list) list;
  fs_saved : int;
  fs_dups : int;
  fs_worker_crashes : int;
  fs_restarts : int;
  fs_cov_total : int;
  fs_cov_pass : int;
  fs_elapsed_ms : float;
  fs_complete : bool;
}

let totals_of_checkpoint (ck : Checkpoint.t) : Pfuzz.Ledger.totals =
  {
    t_verdicts = ck.ck_verdicts;
    t_crashes = ck.ck_crashes;
    t_keys = ck.ck_keys;
    t_triggered = ck.ck_triggered;
    t_ops = ck.ck_ops;
    t_saved = ck.ck_saved;
    t_dups = ck.ck_dups;
  }

let summary_of ~kind ~applied ~session ~shards ~(totals : Pfuzz.Ledger.totals)
    ~cov ~worker_crashes ~restarts ~elapsed_ms ~complete =
  {
    fs_kind = kind;
    fs_tests = applied;
    fs_session_tests = session;
    fs_shards = shards;
    fs_verdicts = totals.t_verdicts;
    fs_crashes = totals.t_crashes;
    fs_failure_keys = totals.t_keys;
    fs_triggered = totals.t_triggered;
    fs_ops = totals.t_ops;
    fs_saved = totals.t_saved;
    fs_dups = totals.t_dups;
    fs_worker_crashes = worker_crashes;
    fs_restarts = restarts;
    fs_cov_total = Cov.count cov;
    fs_cov_pass = Cov.count_pass cov;
    fs_elapsed_ms = elapsed_ms;
    fs_complete = complete;
  }

(* ------------------------------------------------------------------ *)
(* Crash filing                                                        *)
(* ------------------------------------------------------------------ *)

(* The synthetic "system" worker deaths are filed against: its
   compile_and_run raises unconditionally, so the reducer's
   "still-reproduces" probe deterministically fails and the crash case is
   saved unreduced — identical bytes on every run and resume. *)
let fleet_system : Systems.t =
  {
    Systems.s_name = "Fleet";
    closed_source = true;
    compile_and_run =
      (fun _ _ _ -> raise (Faults.Compiler_bug "[fleet.worker] worker died"));
  }

(* The graph filed with a worker-death crash: regenerate the model the
   dead worker was (presumed) running, so the bundle reproduces the
   offending input.  Generation itself may be the thing that killed the
   worker, so fall back to a tiny then an empty graph. *)
let crash_graph ~seed ~max_nodes ~binning =
  let gen cfg = try Some (Gen.generate cfg) with _ -> None in
  match gen { Config.default with seed; max_nodes; binning } with
  | Some g -> g
  | None -> (
      match gen { Config.default with seed = 1; max_nodes = 3 } with
      | Some g -> g
      | None -> Graph.empty)

let crash_message ~worker ~cause ~index =
  Printf.sprintf "[fleet.worker] worker %d died (%s) at index %d" worker cause
    index

(* A worker death as the one-crash outcome the ledger applies at [index],
   filed against [fleet_system] with the derived seed of that index. *)
let death_outcome ~root_seed ~max_nodes ~binning ~worker ~cause ~index :
    Pfuzz.outcome =
  let msg = crash_message ~worker ~cause ~index in
  let key = Harness.dedup_key msg in
  let seed = Splitmix.derive ~root:root_seed ~index in
  {
    o_verdicts = [ ("crash", 1) ];
    o_crashes = [ (key, 1) ];
    o_keys = [ key ];
    o_triggered = [];
    o_ops = [];
    o_failures =
      [
        {
          f_system = fleet_system;
          f_generator = "NNSmith";
          f_seed = seed;
          f_export_bugs = [];
          f_graph = crash_graph ~seed ~max_nodes ~binning;
          f_binding = [];
          f_verdict = Harness.Crash msg;
        };
      ];
  }

(* ------------------------------------------------------------------ *)
(* Worker main (child-process side)                                    *)
(* ------------------------------------------------------------------ *)

let worker_main () =
  let fail msg =
    prerr_endline ("fleet-worker: " ^ msg);
    exit 2
  in
  let wc =
    match Sys.getenv_opt Proto.env_var with
    | None -> fail (Proto.env_var ^ " not set")
    | Some payload -> (
        match Proto.worker_config_of_string payload with
        | Ok wc -> wc
        | Error e -> fail ("bad worker config: " ^ e))
  in
  (* Frames own fd 1; anything the pipeline prints goes to stderr so it
     cannot corrupt the stream. *)
  let frames_fd = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  let send frame =
    let s = Proto.encode frame in
    let b = Bytes.unsafe_of_string s in
    let n = Bytes.length b in
    let rec go off =
      if off < n then go (off + Unix.write frames_fd b off (n - off))
    in
    go 0
  in
  let hunt = wc.Proto.wc_kind = "hunt" in
  let systems =
    if hunt then Systems.all
    else
      List.map
        (fun name ->
          match Proto.system_of_name name with
          | Some s -> s
          | None -> fail ("unknown system " ^ name))
        wc.Proto.wc_systems
  in
  (try Faults.set_active wc.Proto.wc_faults
   with Invalid_argument m -> fail m);
  Cov.reset ();
  let aborts = Proto.abort_indices () in
  send (Proto.Hello { worker = wc.Proto.wc_worker; pid = Unix.getpid () });
  let prev = ref Cov.empty in
  let tests_done = ref 0 in
  let last = ref (-1) in
  let i = ref wc.Proto.wc_start_index in
  while !i < wc.Proto.wc_tests do
    if List.mem !i aborts then exit Proto.abort_exit_code;
    let seed = Splitmix.derive ~root:wc.Proto.wc_root_seed ~index:!i in
    let outcome =
      Pfuzz.run_one ~attribute_semantic:hunt ~max_nodes:wc.Proto.wc_max_nodes
        ~binning:wc.Proto.wc_binning ~systems ~seed ()
    in
    let snap = Cov.snapshot () in
    let delta = Cov.diff snap !prev in
    prev := snap;
    incr tests_done;
    last := !i;
    send
      (Proto.Outcome
         {
           Proto.fo_index = !i;
           fo_tests = !tests_done;
           fo_outcome = outcome;
           fo_cov_delta = Cov.to_list delta;
           fo_cov_total = Cov.count snap;
           fo_cov_universe = Cov.universe_size ();
         });
    i := !i + wc.Proto.wc_shards
  done;
  send (Proto.Shard_done { tests = !tests_done; last_index = !last });
  exit 0

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

exception Power_cut

let index_path dir = Filename.concat dir "index.jsonl"

let index_bytes dir =
  match Unix.stat (index_path dir) with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

(* Undo corpus appends made after the checkpoint: truncate index.jsonl
   back to the recorded length.  The truncated records are regenerated
   byte-for-byte when the corresponding indices re-run. *)
let truncate_index dir bytes =
  let path = index_path dir in
  let have = index_bytes dir in
  if have < bytes then
    Error
      (Printf.sprintf "%s is %d bytes but the checkpoint recorded %d" path
         have bytes)
  else begin
    if have > bytes then begin
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> Unix.ftruncate fd bytes)
    end;
    Ok ()
  end

let write_text_file path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content);
  Sys.rename tmp path

(* Tests shard [w] contributed to the applied prefix: |{i < applied :
   i mod shards = w}| — seeds the per-worker heartbeat totals on resume. *)
let applied_in_shard ~applied ~shards w =
  if applied > w then ((applied - 1 - w) / shards) + 1 else 0

let run ?(resume = false) (cfg : config) : (summary, string) result =
  let dir = cfg.fc_dir in
  let ( let* ) = Result.bind in
  let* () =
    if cfg.fc_shards < 1 then Error "fleet: need at least one shard"
    else if cfg.fc_tests < 0 then Error "fleet: negative test budget"
    else if cfg.fc_checkpoint_every < 1 then
      Error "fleet: checkpoint interval must be at least 1"
    else Ok ()
  in
  let* lock = Flock.acquire dir in
  let release_lock = lazy (Flock.release lock) in
  let finish_err e =
    Lazy.force release_lock;
    Error e
  in
  match Checkpoint.load dir with
  | Error e -> finish_err ("fleet: unreadable checkpoint: " ^ e)
  | Ok (Some _) when not resume ->
      finish_err
        (Printf.sprintf
           "fleet: %s already holds a checkpoint; pass --resume to continue \
            it (or start a fresh directory)"
           dir)
  | Ok None when resume ->
      finish_err (Printf.sprintf "fleet: no checkpoint to resume in %s" dir)
  | Ok (Some ck) when resume && ck.Checkpoint.ck_complete ->
      (* Nothing to do; report the completed campaign as-is. *)
      Lazy.force release_lock;
      let* kind = kind_of_name ck.ck_kind in
      Ok
        (summary_of ~kind ~applied:ck.ck_applied ~session:0
           ~shards:ck.ck_shards ~totals:(totals_of_checkpoint ck)
           ~cov:(Cov.of_list ck.ck_coverage)
           ~worker_crashes:ck.ck_worker_crashes ~restarts:ck.ck_restarts
           ~elapsed_ms:0. ~complete:true)
  | Ok ck_opt -> (
      (* Campaign shape comes from the checkpoint on resume — the resumed
         run must re-derive exactly the same index space. *)
      let restored = if resume then ck_opt else None in
      let shape =
        match restored with
        | None ->
            Ok
              ( cfg.fc_kind,
                cfg.fc_root_seed,
                cfg.fc_shards,
                cfg.fc_tests,
                cfg.fc_max_nodes,
                cfg.fc_binning,
                cfg.fc_systems,
                cfg.fc_faults,
                0 )
        | Some ck ->
            let* kind = kind_of_name ck.Checkpoint.ck_kind in
            let* systems =
              List.fold_left
                (fun acc name ->
                  let* acc = acc in
                  match Proto.system_of_name name with
                  | Some s -> Ok (s :: acc)
                  | None ->
                      Error
                        ("fleet: checkpoint names unknown system " ^ name))
                (Ok []) ck.ck_systems
            in
            Ok
              ( kind,
                ck.ck_root_seed,
                ck.ck_shards,
                ck.ck_tests,
                ck.ck_max_nodes,
                ck.ck_binning,
                List.rev systems,
                ck.ck_faults,
                ck.ck_applied )
      in
      match shape with
      | Error e -> finish_err e
      | Ok
          ( kind,
            root_seed,
            shards_n,
            tests,
            max_nodes,
            binning,
            systems,
            faults,
            applied0 ) -> (
          let undo =
            match restored with
            | None -> Ok ()
            | Some ck ->
                (* Heal the kill artefacts before reopening for append:
                   drop a torn journal line, undo un-checkpointed corpus
                   appends. *)
                let dropped = Journal.repair_tail (Journal.in_dir dir) in
                if dropped > 0 then Tel.incr "fleet/journal_repairs";
                truncate_index dir ck.ck_index_bytes
          in
          match undo with
          | Error e -> finish_err e
          | Ok () ->
              (try Faults.set_active faults
               with Invalid_argument _ -> Faults.set_active []);
              Cov.reset ();
              let progress =
                if cfg.fc_progress then Some (Progress.create ()) else None
              in
              let observer = Option.map (fun p -> Progress.observe p) progress in
              let journal =
                Journal.create ?observer ~path:(Journal.in_dir dir) ()
              in
              (* Each applied index's payload: the worker's coverage
                 delta, or [None] for a worker death. *)
              let ledger : (string * bool) list option Pfuzz.Ledger.t =
                Pfuzz.Ledger.create ~journal ~report_dir:dir
                  ?from:
                    (Option.map
                       (fun ck ->
                         (ck.Checkpoint.ck_applied, totals_of_checkpoint ck))
                       restored)
                  ()
              in
              let applied () = Pfuzz.Ledger.applied ledger in
              let cov, worker_crashes, restarts =
                match restored with
                | None -> (ref Cov.empty, ref 0, ref 0)
                | Some ck ->
                    ( ref (Cov.of_list ck.ck_coverage),
                      ref ck.ck_worker_crashes,
                      ref ck.ck_restarts )
              in
              let last_ck = ref applied0 in
              let start_ms = Tel.now_ms () in
              (match restored with
              | None ->
                  Journal.emit journal
                    (Journal.Start
                       {
                         s_at_ms = start_ms;
                         s_kind = "fleet-" ^ kind_name kind;
                         s_systems =
                           List.map (fun s -> s.Systems.s_name) systems;
                         s_generator = "NNSmith";
                         s_root_seed = root_seed;
                         s_jobs = shards_n;
                         s_budget = Journal.B_tests tests;
                       })
              | Some _ ->
                  Tel.incr "fleet/resumes";
                  Journal.emit journal
                    (Journal.Resume
                       {
                         rs_at_ms = start_ms;
                         rs_applied = applied0;
                         rs_tests = tests;
                         rs_shards = shards_n;
                       }));
              let shards =
                Array.init shards_n (fun w ->
                    let next =
                      Checkpoint.next_index_for ~applied:applied0
                        ~shards:shards_n w
                    in
                    let sh = Supervise.make_shard ~id:w ~next in
                    sh.Supervise.sh_tests <-
                      applied_in_shard ~applied:applied0 ~shards:shards_n w;
                    if next >= tests then sh.Supervise.sh_state <- Supervise.Done;
                    sh)
              in
              let worker_config (sh : Supervise.shard) =
                {
                  Proto.wc_kind = kind_name kind;
                  wc_worker = sh.Supervise.sh_id;
                  wc_shards = shards_n;
                  wc_start_index = sh.Supervise.sh_next;
                  wc_tests = tests;
                  wc_root_seed = root_seed;
                  wc_max_nodes = max_nodes;
                  wc_binning = binning;
                  wc_systems = List.map (fun s -> s.Systems.s_name) systems;
                  wc_faults = faults;
                }
              in
              let stop = ref false in
              let prev_int =
                Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
              in
              let prev_term =
                Sys.signal Sys.sigterm
                  (Sys.Signal_handle (fun _ -> stop := true))
              in
              let draining = ref false in
              let drain_deadline = ref infinity in
              let save_checkpoint ~complete =
                (* Fold in the supervisor-domain hits (reduce probes) so a
                   resume reproduces only the un-checkpointed window. *)
                cov := Cov.union !cov (Cov.snapshot ());
                let t = Pfuzz.Ledger.totals ledger in
                Checkpoint.save dir
                  {
                    Checkpoint.ck_version = Checkpoint.version;
                    ck_kind = kind_name kind;
                    ck_root_seed = root_seed;
                    ck_shards = shards_n;
                    ck_tests = tests;
                    ck_max_nodes = max_nodes;
                    ck_binning = binning;
                    ck_systems = List.map (fun s -> s.Systems.s_name) systems;
                    ck_faults = faults;
                    ck_applied = applied ();
                    ck_shard_next =
                      Checkpoint.shard_next ~applied:(applied ())
                        ~shards:shards_n;
                    ck_index_bytes = index_bytes dir;
                    ck_coverage = Cov.to_list !cov;
                    ck_verdicts = t.t_verdicts;
                    ck_crashes = t.t_crashes;
                    ck_keys = t.t_keys;
                    ck_triggered = t.t_triggered;
                    ck_ops = t.t_ops;
                    ck_saved = t.t_saved;
                    ck_dups = t.t_dups;
                    ck_worker_crashes = !worker_crashes;
                    ck_restarts = !restarts;
                    ck_complete = complete;
                    ck_at_ms = Tel.now_ms ();
                  };
                last_ck := applied ()
              in
              (* Apply every outcome the ledger can, one index at a time:
                 each may close a checkpoint interval or trip the
                 power-cut hook. *)
              let rec drain_apply () =
                match Pfuzz.Ledger.apply_next ledger with
                | None -> ()
                | Some payload ->
                    (match payload with
                    | Some delta -> cov := Cov.union !cov (Cov.of_list delta)
                    | None -> incr worker_crashes);
                    (match cfg.fc_stop_after_applied with
                    | Some k when applied () >= k -> raise Power_cut
                    | _ -> ());
                    if applied () - !last_ck >= cfg.fc_checkpoint_every then
                      save_checkpoint ~complete:false;
                    drain_apply ()
              in
              let handle_crash (sh : Supervise.shard) (p : Supervise.proc)
                  cause =
                let index = p.Supervise.p_next_index in
                if index >= tests then begin
                  (* The worker had already finished its range; the death
                     happened after the last test (e.g. killed between the
                     final outcome and Shard_done). *)
                  sh.Supervise.sh_state <- Supervise.Done;
                  Journal.emit journal
                    (Journal.Shard_done
                       {
                         sd_at_ms = Tel.now_ms ();
                         sd_worker = sh.Supervise.sh_id;
                         sd_tests = sh.Supervise.sh_tests;
                         sd_last_index = index - shards_n;
                       })
                end
                else begin
                  sh.Supervise.sh_restarts <- sh.Supervise.sh_restarts + 1;
                  sh.Supervise.sh_consec_deaths <-
                    sh.Supervise.sh_consec_deaths + 1;
                  incr restarts;
                  Tel.incr "fleet/worker_crashes";
                  Journal.emit journal
                    (Journal.Worker_crash
                       {
                         wc_at_ms = Tel.now_ms ();
                         wc_worker = sh.Supervise.sh_id;
                         wc_index = index;
                         wc_seed = Splitmix.derive ~root:root_seed ~index;
                         wc_cause = cause;
                         wc_restarts = sh.Supervise.sh_restarts;
                       });
                  Pfuzz.Ledger.offer ledger index
                    (death_outcome ~root_seed ~max_nodes ~binning
                       ~worker:sh.Supervise.sh_id ~cause ~index)
                    None;
                  sh.Supervise.sh_next <- index + shards_n;
                  if sh.Supervise.sh_consec_deaths > cfg.fc_max_restarts then
                    sh.Supervise.sh_state <- Supervise.Abandoned
                  else if sh.Supervise.sh_next >= tests then
                    sh.Supervise.sh_state <- Supervise.Done
                  else
                    sh.Supervise.sh_state <-
                      Supervise.Idle
                        (Tel.now_ms ()
                        +. Supervise.backoff_ms ~base_ms:cfg.fc_backoff_base_ms
                             ~max_ms:cfg.fc_backoff_max_ms
                             ~consec_deaths:sh.Supervise.sh_consec_deaths)
                end
              in
              let on_eof (sh : Supervise.shard) (p : Supervise.proc) =
                let cause = Supervise.reap p in
                if p.Supervise.p_done then begin
                  sh.Supervise.sh_state <- Supervise.Done;
                  sh.Supervise.sh_consec_deaths <- 0;
                  Journal.emit journal
                    (Journal.Shard_done
                       {
                         sd_at_ms = Tel.now_ms ();
                         sd_worker = sh.Supervise.sh_id;
                         sd_tests = sh.Supervise.sh_tests;
                         sd_last_index = p.Supervise.p_done_last_index;
                       })
                end
                else if !stop then sh.Supervise.sh_state <- Supervise.Done
                else handle_crash sh p cause
              in
              let maybe_heartbeat (sh : Supervise.shard)
                  (fr : Proto.outcome_frame) =
                let now = Tel.now_ms () in
                if now >= sh.Supervise.sh_next_hb_ms then begin
                  sh.Supervise.sh_next_hb_ms <- now +. 250.;
                  sh.Supervise.sh_seq <- sh.Supervise.sh_seq + 1;
                  Journal.emit journal
                    (Journal.Heartbeat
                       {
                         h_worker = sh.Supervise.sh_id;
                         h_seq = sh.Supervise.sh_seq;
                         h_at_ms = now;
                         h_tests = sh.Supervise.sh_tests;
                         h_verdicts =
                           List.sort compare
                             (Hashtbl.fold
                                (fun k n acc -> (k, n) :: acc)
                                sh.Supervise.sh_verdicts []);
                         h_cov_total = Cov.count !cov;
                         h_cov_pass = Cov.count_pass !cov;
                         h_cov_universe = fr.Proto.fo_cov_universe;
                       })
                end
              in
              let on_frame (sh : Supervise.shard) (p : Supervise.proc) =
                function
                | Proto.Hello _ -> ()
                | Proto.Outcome fr ->
                    p.Supervise.p_next_index <-
                      fr.Proto.fo_index + shards_n;
                    p.Supervise.p_tests <- fr.Proto.fo_tests;
                    sh.Supervise.sh_consec_deaths <- 0;
                    sh.Supervise.sh_tests <- sh.Supervise.sh_tests + 1;
                    List.iter
                      (fun (k, n) ->
                        Hashtbl.replace sh.Supervise.sh_verdicts k
                          (n
                          + Option.value ~default:0
                              (Hashtbl.find_opt sh.Supervise.sh_verdicts k)))
                      fr.Proto.fo_outcome.Pfuzz.o_verdicts;
                    Pfuzz.Ledger.offer ledger fr.Proto.fo_index
                      fr.Proto.fo_outcome (Some fr.Proto.fo_cov_delta);
                    maybe_heartbeat sh fr
                | Proto.Shard_done { tests = done_tests; last_index } ->
                    p.Supervise.p_done <- true;
                    p.Supervise.p_done_tests <- done_tests;
                    p.Supervise.p_done_last_index <- last_index
              in
              let read_buf = Bytes.create 65536 in
              let read_proc (sh : Supervise.shard) (p : Supervise.proc) =
                match Unix.read p.Supervise.p_fd read_buf 0 65536 with
                | 0 -> on_eof sh p
                | n ->
                    p.Supervise.p_last_frame_ms <- Tel.now_ms ();
                    Proto.feed p.Supervise.p_decoder read_buf ~len:n;
                    let rec pull () =
                      match Proto.next p.Supervise.p_decoder with
                      | Ok None -> ()
                      | Ok (Some frame) ->
                          on_frame sh p frame;
                          (* a frame may flip state (Shard_done) but never
                             removes the proc, so keep pulling *)
                          pull ()
                      | Error e ->
                          Supervise.kill p;
                          let _ = Supervise.reap p in
                          handle_crash sh p ("protocol error: " ^ e)
                    in
                    pull ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                | exception Unix.Unix_error _ -> on_eof sh p
              in
              let next_dash = ref 0. in
              let regen_dashboard () =
                match
                  Dashboard.of_dir
                    ~refresh_secs:
                      (max 1
                         (int_of_float (cfg.fc_dashboard_every_ms /. 1000.)))
                    dir
                with
                | html ->
                    write_text_file (Filename.concat dir "dashboard.html") html
                | exception _ -> ()
              in
              let all_settled () =
                Array.for_all
                  (fun (sh : Supervise.shard) ->
                    match sh.Supervise.sh_state with
                    | Supervise.Done | Supervise.Abandoned -> true
                    | _ -> false)
                  shards
              in
              let spawn_due now =
                Array.iter
                  (fun (sh : Supervise.shard) ->
                    match sh.Supervise.sh_state with
                    | Supervise.Idle due when now >= due && not !stop ->
                        if sh.Supervise.sh_next >= tests then
                          sh.Supervise.sh_state <- Supervise.Done
                        else begin
                          match
                            Supervise.spawn ~exe:cfg.fc_exe ~argv:cfg.fc_argv
                              ~config:(worker_config sh)
                              ~start_index:sh.Supervise.sh_next
                          with
                          | p -> sh.Supervise.sh_state <- Supervise.Running p
                          | exception Unix.Unix_error (e, _, _) ->
                              sh.Supervise.sh_consec_deaths <-
                                sh.Supervise.sh_consec_deaths + 1;
                              if
                                sh.Supervise.sh_consec_deaths
                                > cfg.fc_max_restarts
                              then
                                sh.Supervise.sh_state <- Supervise.Abandoned
                              else
                                sh.Supervise.sh_state <-
                                  Supervise.Idle
                                    (now
                                    +. Supervise.backoff_ms
                                         ~base_ms:cfg.fc_backoff_base_ms
                                         ~max_ms:cfg.fc_backoff_max_ms
                                         ~consec_deaths:
                                           sh.Supervise.sh_consec_deaths);
                              prerr_endline
                                ("fleet: spawn failed: "
                                ^ Unix.error_message e)
                        end
                    | _ -> ())
                  shards
              in
              let check_heartbeats now =
                Array.iter
                  (fun (sh : Supervise.shard) ->
                    match sh.Supervise.sh_state with
                    | Supervise.Running p
                      when now -. p.Supervise.p_last_frame_ms
                           > cfg.fc_heartbeat_timeout_ms ->
                        Supervise.kill p;
                        let _ = Supervise.reap p in
                        handle_crash sh p "heartbeat timeout"
                    | _ -> ())
                  shards
              in
              let kill_all () =
                List.iter
                  (fun p ->
                    Supervise.kill p;
                    ignore (Supervise.reap p))
                  (Supervise.running_procs shards);
                Array.iter
                  (fun (sh : Supervise.shard) ->
                    match sh.Supervise.sh_state with
                    | Supervise.Running _ ->
                        sh.Supervise.sh_state <- Supervise.Done
                    | _ -> ())
                  shards
              in
              let rec loop () =
                if !stop && not !draining then begin
                  draining := true;
                  drain_deadline := Tel.now_ms () +. 5_000.;
                  List.iter Supervise.term (Supervise.running_procs shards)
                end;
                if !stop then
                  (* a shard waiting out its restart backoff has no process
                     to drain — settle it directly *)
                  Array.iter
                    (fun (sh : Supervise.shard) ->
                      match sh.Supervise.sh_state with
                      | Supervise.Idle _ ->
                          sh.Supervise.sh_state <- Supervise.Done
                      | _ -> ())
                    shards;
                if !draining && Tel.now_ms () > !drain_deadline then kill_all ();
                if not (all_settled ()) then begin
                  let now = Tel.now_ms () in
                  spawn_due now;
                  check_heartbeats now;
                  let procs =
                    Array.to_list shards
                    |> List.filter_map (fun (sh : Supervise.shard) ->
                           match sh.Supervise.sh_state with
                           | Supervise.Running p -> Some (sh, p)
                           | _ -> None)
                  in
                  (match procs with
                  | [] -> Unix.sleepf 0.02
                  | _ -> (
                      let fds = List.map (fun (_, p) -> p.Supervise.p_fd) procs in
                      match Unix.select fds [] [] 0.1 with
                      | ready, _, _ ->
                          List.iter
                            (fun (sh, p) ->
                              if List.mem p.Supervise.p_fd ready then
                                read_proc sh p)
                            procs
                      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()));
                  drain_apply ();
                  if
                    cfg.fc_dashboard_every_ms > 0.
                    && Tel.now_ms () >= !next_dash
                  then begin
                    next_dash := Tel.now_ms () +. cfg.fc_dashboard_every_ms;
                    regen_dashboard ()
                  end;
                  loop ()
                end
              in
              let finish_session () =
                Option.iter Progress.finish progress;
                Journal.close journal;
                Sys.set_signal Sys.sigint prev_int;
                Sys.set_signal Sys.sigterm prev_term;
                Lazy.force release_lock
              in
              let summary ~complete =
                summary_of ~kind ~applied:(applied ())
                  ~session:(applied () - applied0) ~shards:shards_n
                  ~totals:(Pfuzz.Ledger.totals ledger) ~cov:!cov
                  ~worker_crashes:!worker_crashes ~restarts:!restarts
                  ~elapsed_ms:(Tel.now_ms () -. start_ms) ~complete
              in
              match loop () with
              | () ->
                  let abandoned =
                    Array.to_list shards
                    |> List.find_opt (fun (sh : Supervise.shard) ->
                           sh.Supervise.sh_state = Supervise.Abandoned)
                  in
                  let stopped = !stop in
                  if stopped || abandoned <> None then begin
                    (try drain_apply () with Power_cut -> ());
                    save_checkpoint ~complete:false;
                    let s = summary ~complete:false in
                    finish_session ();
                    match abandoned with
                    | Some sh ->
                        Error
                          (Printf.sprintf
                             "fleet: shard %d abandoned after %d consecutive \
                              worker deaths (checkpoint saved; --resume to \
                              retry)"
                             sh.Supervise.sh_id (cfg.fc_max_restarts + 1))
                    | None -> Ok s
                  end
                  else begin
                    (* Normal completion: every index applied exactly once. *)
                    assert (applied () = tests);
                    cov := Cov.union !cov (Cov.snapshot ());
                    let elapsed = Float.max 1e-6 (Tel.now_ms () -. start_ms) in
                    Pfuzz.Ledger.journal_finish journal ~tests
                      ~tests_per_sec:
                        (float_of_int (tests - applied0) /. (elapsed /. 1000.))
                      ~coverage:!cov
                      (Pfuzz.Ledger.totals ledger);
                    save_checkpoint ~complete:true;
                    (* The canonical coverage artefact the CI identity gate
                       compares across resumed vs. uninterrupted runs. *)
                    write_text_file
                      (Filename.concat dir "coverage.json")
                      (Json.to_string
                         (Json.Obj
                            [
                              ("total", Json.Num (float_of_int (Cov.count !cov)));
                              ( "pass",
                                Json.Num (float_of_int (Cov.count_pass !cov)) );
                              ("sites", Json.sites_to_json (Cov.to_list !cov));
                            ])
                      ^ "\n");
                    if cfg.fc_dashboard_every_ms > 0. then regen_dashboard ();
                    let s = summary ~complete:true in
                    finish_session ();
                    Ok s
                  end
              | exception Power_cut ->
                  (* Simulated supervisor power cut: no checkpoint, no
                     journal finale — just dead workers and whatever made
                     it to disk, exactly like kill -9. *)
                  List.iter
                    (fun p ->
                      Supervise.kill p;
                      ignore (Supervise.reap p))
                    (Supervise.running_procs shards);
                  let s = summary ~complete:false in
                  (* Closing the journal writes nothing (each event was
                     flushed as a complete line), so this is still an
                     honest kill -9 simulation — it just avoids leaking a
                     descriptor per simulated cut in the property tests. *)
                  Journal.close journal;
                  Option.iter Progress.finish progress;
                  Sys.set_signal Sys.sigint prev_int;
                  Sys.set_signal Sys.sigterm prev_term;
                  Lazy.force release_lock;
                  Ok s
              | exception e ->
                  List.iter
                    (fun p ->
                      Supervise.kill p;
                      ignore (Supervise.reap p))
                    (Supervise.running_procs shards);
                  (try save_checkpoint ~complete:false with _ -> ());
                  finish_session ();
                  Error ("fleet: " ^ Printexc.to_string e)))
