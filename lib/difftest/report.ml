(** Bug reporting and replay: the bridge between a live fuzzing loop and
    the persistent {!Nnsmith_corpus.Corpus}.

    Saving minimizes first ({!Reduce.minimize} under a "still fails with the
    same dedup-key" predicate, falling back to the unreduced model when the
    predicate does not reproduce), then stores the exact (graph, binding)
    pair the recorded verdict was computed from — so {!replay_case} is
    deterministic: load, re-activate the recorded fault set, export, test,
    compare. *)

module Graph = Nnsmith_ir.Graph
module Runner = Nnsmith_ops.Runner
module Validate = Nnsmith_ops.Validate
module Faults = Nnsmith_faults.Faults
module Tel = Nnsmith_telemetry.Telemetry
module Corpus = Nnsmith_corpus.Corpus

let corpus_verdict : Harness.verdict -> Corpus.verdict = function
  | Harness.Pass -> Corpus.Pass
  | Harness.Crash m -> Corpus.Crash m
  | Harness.Semantic { sem_kind; rel_err } -> Corpus.Semantic { sem_kind; rel_err }
  | Harness.Skipped r -> Corpus.Skipped r

(** Corpus dedup-key of a failing verdict; [None] for Pass/Skipped.
    Crashes dedup by their digit-masked message (like the paper's
    by-error-message dedup); semantic mismatches carry no message, so they
    dedup by system and localisation kind. *)
let failure_key (system : Systems.t) = function
  | Harness.Crash m -> Some (Harness.dedup_key m)
  | Harness.Semantic { sem_kind; _ } ->
      Some
        (Printf.sprintf "[semantic-%s] %s"
           (match sem_kind with
           | `Optimization -> "optimization"
           | `Frontend -> "frontend")
           system.s_name)
  | Harness.Pass | Harness.Skipped _ -> None

let active_bug_ids () =
  List.filter_map
    (fun (b : Faults.bug) -> if Faults.enabled b.b_id then Some b.b_id else None)
    Faults.catalogue

let triggered_bugs_of = function
  | Harness.Crash m -> Option.to_list (Harness.bug_id_of_message m)
  | _ -> []

(* The canonical probe: the binding is re-derived from an rng seeded by the
   dedup-key with an iteration-capped (load-independent) input search, so
   probing the same graph always yields the same (binding, exported,
   verdict) triple — even while worker domains keep the machine busy. *)
let probe (system : Systems.t) ~reduce_seed g =
  let rng = Random.State.make [| reduce_seed |] in
  let binding = Inputs.find_binding rng g in
  let exported, export_bugs = Exporter.export g in
  match Harness.test ~exported system g binding with
  | v -> Some (binding, export_bugs, v)
  | exception _ -> None

type save_result = [ `Saved of string | `Duplicate of string | `Not_failure ]

(** Save a failing test into the corpus, minimized first.  [binding] and
    [verdict] are what the fuzzing loop observed; when the canonical probe
    reproduces the same dedup-key the model is shrunk with
    {!Reduce.minimize} and the reduced reproducer is saved, otherwise the
    loop's own (graph, binding, verdict) is saved unreduced.  Duplicates
    (by dedup-key, across runs) are only counted. *)
let save_failure corpus ~(system : Systems.t) ~generator ?(seed = 0)
    ?(export_bugs = []) (g : Graph.t) (binding : Runner.binding)
    (verdict : Harness.verdict) : save_result =
  match failure_key system verdict with
  | None -> `Not_failure
  | Some key -> (
      match Corpus.record_duplicate corpus key with
      | Some id -> `Duplicate id
      | None ->
          let reduce_seed = Hashtbl.hash key in
          (* The last probe that reproduced.  [minimize] accepts exactly the
             candidates the predicate holds on and returns the last one it
             accepted (or [g]), so this is the reduced graph's probe: the
             probe is deterministic, and running it again would repeat it. *)
          let last = ref None in
          let reproduces g' =
            match Validate.check g' with
            | Error _ -> false
            | Ok () -> (
                match probe system ~reduce_seed g' with
                | Some ((_, _, v) as triple) when failure_key system v = Some key ->
                    last := Some triple;
                    true
                | Some _ | None -> false)
          in
          let t0 = Tel.now_ms () in
          let reduced =
            if reproduces g then
              Some
                (Tel.with_span "corpus/reduce" (fun () ->
                     Reduce.minimize ~predicate:reproduces g))
            else None
          in
          let red_ms = Tel.now_ms () -. t0 in
          Tel.observe "corpus/reduce_ms" red_ms;
          let graph, binding, verdict, export_bugs, reduction =
            match (reduced, !last) with
            | Some (rg, stats), Some (b, fired, v) ->
                ( rg,
                  b,
                  v,
                  fired,
                  Some
                    {
                      Corpus.red_attempts = stats.Reduce.attempts;
                      red_accepted = stats.Reduce.accepted;
                      red_initial = stats.Reduce.initial_size;
                      red_final = stats.Reduce.final_size;
                      red_ms;
                    } )
            | _ -> (g, binding, verdict, export_bugs, None)
          in
          let meta =
            {
              Corpus.seed;
              generator;
              system = system.s_name;
              verdict = corpus_verdict verdict;
              dedup_key = key;
              active_bugs = active_bug_ids ();
              triggered_bugs = triggered_bugs_of verdict;
              export_bugs;
              reduction;
            }
          in
          (Corpus.add corpus ~graph ~binding ~meta :> save_result))

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

type outcome = {
  rp_case : string;
  rp_expected_kind : string;
  rp_got_kind : string;
  rp_expected_key : string;
  rp_got_key : string option;  (** [None] when the re-run did not fail *)
  rp_drift : bool;
  rp_note : string;  (** non-empty when the case could not be re-run *)
}

let system_by_name name =
  List.find_opt (fun (s : Systems.t) -> s.s_name = name) Systems.all

let error_outcome ~case ~expected_kind ~expected_key note =
  {
    rp_case = case;
    rp_expected_kind = expected_kind;
    rp_got_kind = "error";
    rp_expected_key = expected_key;
    rp_got_key = None;
    rp_drift = true;
    rp_note = note;
  }

(** Re-run one saved case against its recorded system, with its recorded
    fault set active, through the exporter — and compare verdict kind and
    dedup-key with what the corpus recorded. *)
let replay_case (c : Corpus.case) : outcome =
  Tel.with_span "corpus/replay" @@ fun () ->
  let expected_kind = Corpus.verdict_kind c.meta.verdict in
  let expected_key = c.meta.dedup_key in
  let out =
    match system_by_name c.meta.system with
    | None ->
        error_outcome ~case:c.case_id ~expected_kind ~expected_key
          (Printf.sprintf "unknown system %S" c.meta.system)
    | Some system -> (
        match
          Faults.with_bugs c.meta.active_bugs (fun () ->
              let exported, _ = Exporter.export c.graph in
              Harness.test ~exported system c.graph c.binding)
        with
        | exception Invalid_argument m ->
            error_outcome ~case:c.case_id ~expected_kind ~expected_key
              ("stale fault set: " ^ m)
        | exception e ->
            error_outcome ~case:c.case_id ~expected_kind ~expected_key
              ("replay raised: " ^ Printexc.to_string e)
        | got ->
            let got_kind = Corpus.verdict_kind (corpus_verdict got) in
            let got_key = failure_key system got in
            let drift =
              got_kind <> expected_kind
              || ((expected_kind = "crash" || expected_kind = "semantic")
                 && got_key <> Some expected_key)
            in
            {
              rp_case = c.case_id;
              rp_expected_kind = expected_kind;
              rp_got_kind = got_kind;
              rp_expected_key = expected_key;
              rp_got_key = got_key;
              rp_drift = drift;
              rp_note = "";
            })
  in
  Tel.incr (if out.rp_drift then "corpus/replay_drift" else "corpus/replay_match");
  out

(** Replay every saved case; cases whose bundle fails to load are reported
    as drift rather than aborting the sweep. *)
let replay (corpus : Corpus.t) : outcome list =
  List.map
    (fun id ->
      match Corpus.load_case corpus id with
      | c -> replay_case c
      | exception Corpus.Corpus_error m ->
          Tel.incr "corpus/replay_drift";
          error_outcome ~case:id ~expected_kind:"?" ~expected_key:"?" m)
    (Corpus.case_ids corpus)
