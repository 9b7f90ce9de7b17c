(** The seeded-bug study behind Table 3: attribute each failure of a hunt
    ({!Pfuzz.hunt}) to the seeded defects that cause it, and tabulate the
    triggered defects by system and category. *)

module Faults = Nnsmith_faults.Faults

let incr_count tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let semantic_candidates (system : Systems.t) =
  List.filter
    (fun (b : Faults.bug) ->
      b.effect = Faults.Semantic
      && (b.system = system.s_name || b.system = "Exporter"))
    Faults.catalogue

(* A semantic mismatch does not name its defect; re-run with each candidate
   defect enabled in isolation to attribute it. *)
let attribute_semantic (system : Systems.t) g binding triggered =
  List.iter
    (fun (b : Faults.bug) ->
      Faults.with_bugs [ b.b_id ] (fun () ->
          let exported, _ = Exporter.export g in
          match Harness.test ~exported system g binding with
          | Harness.Semantic _ -> incr_count triggered b.b_id
          | Harness.Pass | Crash _ | Skipped _ -> ()
          | exception _ -> ()))
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
