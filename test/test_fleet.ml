(* Tests for the multi-process fleet supervisor (lib/fleet): wire-protocol
   round-trips and torn-frame tolerance, checkpoint persistence and shard
   arithmetic, the advisory campaign lock, and the headline resume
   property — a campaign interrupted by worker crashes or a simulated
   supervisor power cut, then resumed, produces a corpus index and
   coverage file byte-identical to an uninterrupted run. *)

(* This binary doubles as the fleet worker: the supervisor spawns
   [Sys.executable_name] with the [fleet-worker] marker, so the check
   must run before alcotest ever sees argv. *)
let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "fleet-worker" then
    Nnsmith_fleet.Fleet.worker_main ()

module Fleet = Nnsmith_fleet.Fleet
module Proto = Nnsmith_fleet.Proto
module Checkpoint = Nnsmith_fleet.Checkpoint
module Flock = Nnsmith_fleet.Flock
module D = Nnsmith_difftest
module P = Nnsmith_parallel
module Json = Nnsmith_telemetry.Json
module Faults = Nnsmith_faults.Faults

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Sys.readdir path |> Array.iter (fun f -> rm_rf (Filename.concat path f));
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_tmp_dir k =
  (* fleet directories contain a cases/ subtree, so cleanup recurses *)
  let dir = Filename.temp_file "nnsmith_fleet_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> k dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)

let sample_outcome =
  {
    D.Pfuzz.o_verdicts = [ ("crash", 1); ("pass", 2) ];
    o_crashes = [ ("[oxrt.import] boom", 1) ];
    o_keys = [ "[oxrt.import] boom" ];
    o_triggered = [ ("oxrt.import_arity", 1) ];
    o_ops = [ ("Add", [ ("pass", 2) ]); ("MatMul", [ ("crash", 1) ]) ];
    o_failures = [];
  }

let sample_frames =
  [
    Proto.Hello { worker = 2; pid = 4242 };
    Proto.Outcome
      {
        fo_index = 17;
        fo_tests = 6;
        fo_outcome = sample_outcome;
        fo_cov_delta = [ ("oxrt/import/arity", true); ("tvm/fuse", false) ];
        fo_cov_total = 120;
        fo_cov_universe = 300;
      };
    Proto.Shard_done { tests = 20; last_index = 57 };
  ]

let test_frame_roundtrip () =
  List.iter
    (fun f ->
      match Proto.frame_of_json (Proto.frame_to_json f) with
      | Ok f' -> check "frame round-trips" true (f = f')
      | Error m -> Alcotest.failf "frame round-trip: %s" m)
    sample_frames

let test_decoder_byte_at_a_time () =
  (* pipes deliver arbitrary chunkings; the decoder must produce the same
     frame stream when fed one byte at a time *)
  let stream = String.concat "" (List.map Proto.encode sample_frames) in
  let d = Proto.decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      Proto.feed d (Bytes.make 1 c) ~len:1;
      let rec pull () =
        match Proto.next d with
        | Ok (Some f) ->
            got := f :: !got;
            pull ()
        | Ok None -> ()
        | Error m -> Alcotest.failf "decoder error mid-stream: %s" m
      in
      pull ())
    stream;
  check "byte-fed decoder yields the frame stream" true
    (List.rev !got = sample_frames);
  check_int "nothing buffered at the end" 0 (Proto.pending d)

let test_decoder_torn_tail () =
  (* a worker killed mid-write leaves a truncated final frame: every
     preceding frame decodes, the tear never errors, at any cut point *)
  let stream = String.concat "" (List.map Proto.encode sample_frames) in
  let n = String.length stream in
  for cut = 0 to n - 1 do
    let d = Proto.decoder () in
    Proto.feed d (Bytes.of_string (String.sub stream 0 cut)) ~len:cut;
    let rec pull acc =
      match Proto.next d with
      | Ok (Some f) -> pull (f :: acc)
      | Ok None -> List.rev acc
      | Error m -> Alcotest.failf "torn frame errored at cut %d: %s" cut m
    in
    let got = pull [] in
    check "torn stream yields an intact prefix" true
      (List.length got < List.length sample_frames
      || (cut = n && got = sample_frames));
    check "prefix frames are intact" true
      (got = List.filteri (fun i _ -> i < List.length got) sample_frames)
  done

let test_decoder_version_mismatch () =
  let payload =
    Json.to_string
      (Json.Obj [ ("v", Json.Num (float_of_int (Proto.version + 1))) ])
  in
  let len = String.length payload in
  let b = Buffer.create (len + 4) in
  Buffer.add_char b (Char.chr ((len lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((len lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((len lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (len land 0xff));
  Buffer.add_string b payload;
  let d = Proto.decoder () in
  let s = Buffer.to_bytes b in
  Proto.feed d s ~len:(Bytes.length s);
  check "version mismatch is an error" true
    (match Proto.next d with Error _ -> true | Ok _ -> false)

let test_worker_config_roundtrip () =
  let wc =
    {
      Proto.wc_kind = "hunt";
      wc_worker = 3;
      wc_shards = 5;
      wc_start_index = 3;
      wc_tests = 1000;
      wc_root_seed = 0x7f3de91;
      wc_max_nodes = 12;
      wc_binning = true;
      wc_systems = [ "OxRT"; "Lotus" ];
      wc_faults = [ "oxrt.import_arity"; "export.layout" ];
    }
  in
  match Proto.worker_config_of_string (Proto.worker_config_to_string wc) with
  | Ok wc' -> check "worker config round-trips" true (wc = wc')
  | Error m -> Alcotest.failf "worker config round-trip: %s" m

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)

let sample_checkpoint =
  {
    Checkpoint.ck_version = Checkpoint.version;
    ck_kind = "fuzz";
    ck_root_seed = 987654321;
    ck_shards = 3;
    ck_tests = 200;
    ck_max_nodes = 10;
    ck_binning = false;
    ck_systems = [ "OxRT" ];
    ck_faults = [ "oxrt.import_arity" ];
    ck_applied = 57;
    ck_shard_next = Checkpoint.shard_next ~applied:57 ~shards:3;
    ck_index_bytes = 1234;
    ck_coverage = [ ("oxrt/import", true); ("tvm/fuse", false) ];
    ck_verdicts = [ ("crash", 3); ("pass", 54) ];
    ck_crashes = [ ("[oxrt.import] boom", 3) ];
    ck_keys = [ "[oxrt.import] boom" ];
    ck_triggered = [ ("oxrt.import_arity", 3) ];
    ck_ops = [ ("Add", [ ("pass", 40) ]) ];
    ck_saved = 1;
    ck_dups = 2;
    ck_worker_crashes = 1;
    ck_restarts = 1;
    ck_complete = false;
    ck_at_ms = 1.75e12;
  }

let test_checkpoint_roundtrip () =
  with_tmp_dir (fun dir ->
      Checkpoint.save dir sample_checkpoint;
      match Checkpoint.load dir with
      | Ok (Some c) ->
          (* ck_at_ms rides the lossy house float format; compare through
             the codec, which is what resume actually reads *)
          check "checkpoint round-trips" true
            (Json.to_string (Checkpoint.to_json c)
            = Json.to_string (Checkpoint.to_json sample_checkpoint));
          check_int "applied survives" 57 c.Checkpoint.ck_applied;
          check_int "index bytes survive" 1234 c.Checkpoint.ck_index_bytes
      | Ok None -> Alcotest.fail "checkpoint missing after save"
      | Error m -> Alcotest.failf "checkpoint load: %s" m)

let test_checkpoint_missing () =
  with_tmp_dir (fun dir ->
      check "no checkpoint reads as None" true (Checkpoint.load dir = Ok None))

let test_next_index_for () =
  (* the resume point of shard w: smallest index >= applied in w's
     residue class *)
  for applied = 0 to 20 do
    for shards = 1 to 5 do
      for w = 0 to shards - 1 do
        let n = Checkpoint.next_index_for ~applied ~shards w in
        check "resume point is at or past the high-water mark" true
          (n >= applied);
        check "resume point is in the shard's residue class" true
          (n mod shards = w);
        check "resume point is minimal" true (n < applied + shards)
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Campaign lock                                                       *)

let fork_expecting k =
  (* POSIX record locks never conflict within one process, so contention
     must be observed from a child process *)
  match Unix.fork () with
  | 0 ->
      let code = try k () with _ -> 2 in
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED code -> code
      | _ -> -1)

let test_flock_excludes () =
  with_tmp_dir (fun dir ->
      match Flock.acquire dir with
      | Error m -> Alcotest.failf "first acquire: %s" m
      | Ok l ->
          let contended =
            fork_expecting (fun () ->
                match Flock.acquire dir with
                | Error m ->
                    if contains m "in use" then 0 else 3
                | Ok _ -> 1)
          in
          check_int "second campaign fails fast with a descriptive error" 0
            contended;
          Flock.release l;
          let after_release =
            fork_expecting (fun () ->
                match Flock.acquire dir with
                | Ok l' ->
                    Flock.release l';
                    0
                | Error _ -> 1)
          in
          check_int "lock is free after release" 0 after_release)

let test_flock_survives_holder_death () =
  (* the kernel drops the lock when the holder dies, kill -9 included *)
  with_tmp_dir (fun dir ->
      let holder =
        fork_expecting (fun () ->
            match Flock.acquire dir with
            | Ok _ -> 0 (* exit without releasing *)
            | Error _ -> 1)
      in
      check_int "child held the lock" 0 holder;
      match Flock.acquire dir with
      | Ok l ->
          Flock.release l;
          check "lock recovered after holder death" true true
      | Error m -> Alcotest.failf "lock wedged by dead holder: %s" m)

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)

let all_fault_ids = List.map (fun b -> b.Faults.b_id) Faults.catalogue

let fleet_config ?(tests = 60) ?(shards = 3) ?(checkpoint_every = 3) dir =
  {
    (Fleet.default_config ~dir ~tests) with
    Fleet.fc_systems = [ D.Systems.oxrt ];
    fc_faults = all_fault_ids;
    fc_root_seed = 7;
    fc_shards = shards;
    fc_checkpoint_every = checkpoint_every;
    fc_progress = false;
    fc_dashboard_every_ms = 0.;
  }

let run_ok ?resume cfg =
  match Fleet.run ?resume cfg with
  | Ok s -> s
  | Error m -> Alcotest.failf "fleet run failed: %s" m

let index_of dir = read_file (Filename.concat dir "index.jsonl")
let coverage_of dir = read_file (Filename.concat dir "coverage.json")

let with_faults_clear k =
  (* Fleet.run activates the campaign's fault set in the supervisor
     process (the reducer probes there); don't leak it into later tests *)
  Fun.protect ~finally:Faults.deactivate_all k

(* Every total a fleet summary shares with the in-process result. *)
let check_same_totals tag (s : Fleet.summary) (r : D.Pfuzz.result) =
  check (tag "failure keys agree") true
    (s.Fleet.fs_failure_keys = r.D.Pfuzz.r_failure_keys);
  check (tag "verdict counts agree") true
    (s.Fleet.fs_verdicts = r.D.Pfuzz.r_verdicts);
  check (tag "crash counts agree") true
    (s.Fleet.fs_crashes = r.D.Pfuzz.r_crashes);
  check (tag "triggered defects agree") true
    (s.Fleet.fs_triggered = r.D.Pfuzz.r_triggered);
  check (tag "op counts agree") true (s.Fleet.fs_ops = r.D.Pfuzz.r_ops);
  check_int (tag "saved cases agree") r.D.Pfuzz.r_saved s.Fleet.fs_saved;
  check_int (tag "duplicates agree") r.D.Pfuzz.r_dups s.Fleet.fs_dups

let test_fleet_matches_inline () =
  (* the whole point of index-purity: a fleet of 1 to 4 processes writes
     the same corpus index and every total the in-process driver does,
     and so does a 2-shard hunt over every system and fault *)
  with_faults_clear @@ fun () ->
  with_tmp_dir @@ fun inline_dir ->
  Faults.set_active all_fault_ids;
  let r =
    D.Pfuzz.fuzz ~jobs:1 ~report_dir:inline_dir ~systems:[ D.Systems.oxrt ]
      ~root_seed:7 ~budget:(P.Pool.Tests 60) ()
  in
  List.iter
    (fun shards ->
      with_tmp_dir @@ fun fleet_dir ->
      let s = run_ok (fleet_config ~shards fleet_dir) in
      let tag what = Printf.sprintf "%d shard(s): %s" shards what in
      check (tag "fleet campaign completes") true s.Fleet.fs_complete;
      check_int (tag "all indices applied") 60 s.Fleet.fs_tests;
      check (tag "corpus index byte-identical to inline run") true
        (index_of fleet_dir = index_of inline_dir);
      check_same_totals tag s r)
    [ 1; 2; 3; 4 ];
  with_tmp_dir @@ fun hunt_dir ->
  let r =
    D.Pfuzz.hunt ~jobs:1 ~report_dir:hunt_dir ~root_seed:7
      ~budget:(P.Pool.Tests 60) ()
  in
  with_tmp_dir @@ fun fleet_dir ->
  let s =
    run_ok
      {
        (fleet_config ~shards:2 fleet_dir) with
        Fleet.fc_kind = Fleet.Hunt;
        fc_systems = D.Systems.all;
      }
  in
  let tag what = "2-shard hunt: " ^ what in
  check (tag "fleet campaign completes") true s.Fleet.fs_complete;
  check (tag "the hunt triggered defects") true (r.D.Pfuzz.r_triggered <> []);
  check (tag "corpus index byte-identical to inline hunt") true
    (index_of fleet_dir = index_of hunt_dir);
  check_same_totals tag s r

let with_abort_indices indices k =
  Unix.putenv Proto.abort_env_var (String.concat "," indices);
  Fun.protect ~finally:(fun () -> Unix.putenv Proto.abort_env_var "") k

let test_worker_crash_tolerated () =
  (* a deliberately crashing worker (exit 66 before indices 13 and 29)
     must not end the campaign: the shard restarts past each death, the
     deaths are filed as one deduped crash, and the run stays
     deterministic — a second identical campaign writes the same bytes *)
  with_faults_clear @@ fun () ->
  with_abort_indices [ "13"; "29" ] @@ fun () ->
  with_tmp_dir @@ fun d1 ->
  with_tmp_dir @@ fun d2 ->
  let s1 = run_ok (fleet_config d1) in
  check "campaign survives worker crashes" true s1.Fleet.fs_complete;
  check_int "all indices applied" 60 s1.Fleet.fs_tests;
  check_int "both deaths filed" 2 s1.Fleet.fs_worker_crashes;
  check "crash key present" true
    (List.exists
       (fun k -> contains k "fleet.worker")
       s1.Fleet.fs_failure_keys);
  let s2 = run_ok (fleet_config d2) in
  check_int "deaths reproduce" 2 s2.Fleet.fs_worker_crashes;
  check "crashing campaigns are bit-reproducible" true
    (index_of d1 = index_of d2 && coverage_of d1 = coverage_of d2)

let test_power_cut_resume_identity () =
  (* the headline property: kill the supervisor cold (no final
     checkpoint, workers SIGKILLed) at several points — with worker
     crashes injected for good measure — resume, and land on bytes
     identical to an uninterrupted run *)
  with_faults_clear @@ fun () ->
  with_abort_indices [ "13"; "29" ] @@ fun () ->
  with_tmp_dir @@ fun ref_dir ->
  let _ = run_ok (fleet_config ref_dir) in
  let ref_index = index_of ref_dir and ref_cov = coverage_of ref_dir in
  List.iter
    (fun cut ->
      with_tmp_dir @@ fun dir ->
      let cfg = fleet_config dir in
      let s =
        run_ok { cfg with Fleet.fc_stop_after_applied = Some cut }
      in
      check "power cut leaves an incomplete campaign" false
        s.Fleet.fs_complete;
      check "campaign stopped near the cut" true (s.Fleet.fs_tests >= cut);
      let s' = run_ok ~resume:true cfg in
      check "resume completes" true s'.Fleet.fs_complete;
      check_int "resume reaches the full budget" 60 s'.Fleet.fs_tests;
      check "resume re-ran only the un-checkpointed window" true
        (s'.Fleet.fs_session_tests >= 60 - cut
        && s'.Fleet.fs_session_tests < 60);
      check "corpus index byte-identical after resume" true
        (index_of dir = ref_index);
      check "coverage byte-identical after resume" true
        (coverage_of dir = ref_cov))
    [ 5; 23; 41 ]

let test_resume_guards () =
  with_faults_clear @@ fun () ->
  with_tmp_dir @@ fun dir ->
  let cfg = fleet_config ~tests:12 ~shards:2 dir in
  let s = run_ok cfg in
  check "first run completes" true s.Fleet.fs_complete;
  (* a finished campaign leaves its checkpoint: re-running the same
     directory without --resume must refuse rather than clobber *)
  (match Fleet.run cfg with
  | Error m -> check "refusal names --resume" true (contains m "--resume")
  | Ok _ -> Alcotest.fail "second run over a checkpoint must refuse");
  (* resuming a complete campaign is a no-op *)
  let s' = run_ok ~resume:true cfg in
  check "resume of complete campaign is a no-op" true
    (s'.Fleet.fs_complete && s'.Fleet.fs_session_tests = 0
    && s'.Fleet.fs_tests = 12);
  (* resuming a directory that never ran is an error *)
  with_tmp_dir @@ fun fresh ->
  check "resume without checkpoint refuses" true
    (match Fleet.run ~resume:true (fleet_config ~tests:12 fresh) with
    | Error _ -> true
    | Ok _ -> false)

let () =
  Alcotest.run "fleet"
    [
      ( "proto",
        [
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "byte-at-a-time decode" `Quick
            test_decoder_byte_at_a_time;
          Alcotest.test_case "torn frame at every cut" `Quick
            test_decoder_torn_tail;
          Alcotest.test_case "version mismatch" `Quick
            test_decoder_version_mismatch;
          Alcotest.test_case "worker config round-trip" `Quick
            test_worker_config_roundtrip;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "missing file" `Quick test_checkpoint_missing;
          Alcotest.test_case "next_index_for" `Quick test_next_index_for;
        ] );
      ( "flock",
        [
          Alcotest.test_case "excludes a second campaign" `Quick
            test_flock_excludes;
          Alcotest.test_case "survives holder death" `Quick
            test_flock_survives_holder_death;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "fleet matches inline" `Slow
            test_fleet_matches_inline;
          Alcotest.test_case "worker crashes tolerated" `Slow
            test_worker_crash_tolerated;
          Alcotest.test_case "power-cut resume identity" `Slow
            test_power_cut_resume_identity;
          Alcotest.test_case "resume guards" `Slow test_resume_guards;
        ] );
    ]
