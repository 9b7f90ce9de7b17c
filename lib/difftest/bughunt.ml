(** The seeded-bug study behind Table 3: attribute each failure of a hunt
    ({!Pfuzz.hunt}) to the seeded defects that cause it, and tabulate the
    triggered defects by system and category. *)

module Faults = Nnsmith_faults.Faults
module Tel = Nnsmith_telemetry.Telemetry

let incr_count tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let semantic_candidates (system : Systems.t) =
  List.filter
    (fun (b : Faults.bug) ->
      b.effect = Faults.Semantic
      && (b.system = system.s_name || b.system = "Exporter"))
    Faults.catalogue

(* Whether the test mismatches with only [b_id] on, and the guards that
   run consulted. *)
let isolation_run (system : Systems.t) g binding b_id =
  Faults.record_consulted (fun () ->
      Faults.with_bugs [ b_id ] (fun () ->
          let exported, _ = Exporter.export g in
          match Harness.test ~exported system g binding with
          | Harness.Semantic _ -> true
          | Harness.Pass | Crash _ | Skipped _ -> false
          | exception _ -> false))

(* A semantic mismatch does not name its defect; re-run with each candidate
   defect enabled in isolation to attribute it.  A defect acts only where
   its guard returns true, so a run with only [b] on is step for step the
   fault-free run until it first consults [b]'s guard.  The first run that
   never consults its own guard is therefore the fault-free run: every
   later candidate whose guard that run did not consult would repeat it, and
   takes its verdict without a re-run. *)
let attribute_semantic (system : Systems.t) g binding triggered =
  let fault_free = ref None in
  List.iter
    (fun (b : Faults.bug) ->
      let semantic =
        match !fault_free with
        | Some (semantic, consulted) when not (List.mem b.b_id consulted) ->
            Tel.incr "hunt/isolation_skipped";
            semantic
        | _ ->
            Tel.incr "hunt/isolation_runs";
            let semantic, consulted = isolation_run system g binding b.b_id in
            if !fault_free = None && not (List.mem b.b_id consulted) then
              fault_free := Some (semantic, consulted);
            semantic
      in
      if semantic then incr_count triggered b.b_id)
    (semantic_candidates system)

(** Rows of Table 3 restricted to the given triggered set: per system, the
    count per category plus crash/semantic split. *)
let distribution (triggered : (string, int) Hashtbl.t) =
  let systems = [ "OxRT"; "Lotus"; "TRT"; "Exporter" ] in
  List.map
    (fun sys ->
      let bugs =
        List.filter
          (fun (b : Faults.bug) ->
            b.system = sys && Hashtbl.mem triggered b.b_id)
          Faults.catalogue
      in
      let count cat =
        List.length (List.filter (fun (b : Faults.bug) -> b.category = cat) bugs)
      in
      let effect e =
        List.length (List.filter (fun (b : Faults.bug) -> b.effect = e) bugs)
      in
      ( sys,
        count Faults.Transformation,
        count Faults.Conversion,
        count Faults.Unclassified,
        effect Faults.Crash,
        effect Faults.Semantic ))
    systems
