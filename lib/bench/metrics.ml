(* Deterministic work-counter capture: Gc.quick_stat deltas plus gated
   telemetry-counter deltas around one benchmark round.  See metrics.mli
   for the measurement discipline this enables. *)

module Tel = Nnsmith_telemetry.Telemetry
module Json = Nnsmith_telemetry.Json

type counters = {
  mc_minor_words : float;
  mc_major_words : float;
  mc_promoted_words : float;
  mc_work : (string * int) list;
}

(* Only counters that record deterministic work are admitted.  Everything
   time-driven stays out by omission: journal/* (heartbeats are rate
   limited by the wall clock), parallel/dropped_events (channel saturation
   depends on scheduling), fleet/* (process lifetimes).  The corpus and
   pool entries are exact names, which the prefix test also covers. *)
let work_prefixes =
  [
    "smt/";
    "gen/";
    "grad/";
    "exec/";
    "cov/";
    "corpus/saved";
    "corpus/dup_suppressed";
    "parallel/tests";
    "parallel/failures";
  ]

let is_work_counter name =
  List.exists
    (fun p ->
      String.length name >= String.length p
      && String.sub name 0 (String.length p) = p)
    work_prefixes

let gated snapshot =
  List.filter (fun (k, _) -> is_work_counter k) snapshot.Tel.counters

let capture f =
  let was_enabled = Tel.is_enabled () in
  Tel.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Tel.set_enabled was_enabled)
    (fun () ->
      let before = gated (Tel.snapshot ()) in
      (* Normalize the minor-heap fill: with an empty minor heap, the
         collection (and therefore promotion) points inside [f] are a pure
         function of [f]'s allocation sequence, so even the promoted-words
         delta is bit-stable across back-to-back runs. *)
      Gc.full_major ();
      let g0 = Gc.quick_stat () in
      (* [quick_stat] word counters only refresh at collection boundaries
         (OCaml 5 aggregates per-domain stats at GC points), so a round
         that ends between collections would under-report.  [minor_words]
         samples the allocation pointer directly and is exact.  The major
         and promoted counters are read after one more full collection:
         read mid-cycle they lag by an amount that moves with GC pacing
         from round to round, while the words that collection promotes
         count in both and cancel out of [alloc_words]. *)
      let m0 = Gc.minor_words () in
      let x = f () in
      let m1 = Gc.minor_words () in
      Gc.full_major ();
      let g1 = Gc.quick_stat () in
      let after = gated (Tel.snapshot ()) in
      let base = Hashtbl.create 32 in
      List.iter (fun (k, v) -> Hashtbl.replace base k v) before;
      let work =
        List.filter_map
          (fun (k, v) ->
            let d =
              v - Option.value ~default:0 (Hashtbl.find_opt base k)
            in
            if d <> 0 then Some (k, d) else None)
          after
      in
      ( x,
        {
          mc_minor_words = m1 -. m0;
          mc_major_words = g1.Gc.major_words -. g0.Gc.major_words;
          mc_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
          mc_work = work;
        } ))

let alloc_words c =
  c.mc_minor_words +. c.mc_major_words -. c.mc_promoted_words

let work_diff a b =
  let keys = Hashtbl.create 32 in
  let note (k, _) = Hashtbl.replace keys k () in
  List.iter note a.mc_work;
  List.iter note b.mc_work;
  let value w k =
    Option.value ~default:0 (Option.map snd (List.find_opt (fun (n, _) -> n = k) w))
  in
  Hashtbl.fold (fun k () acc -> k :: acc) keys []
  |> List.sort compare
  |> List.filter_map (fun k ->
         let va = value a.mc_work k and vb = value b.mc_work k in
         if va <> vb then Some (k, va, vb) else None)

let to_json c =
  Json.Obj
    [
      ("minor_words", Json.Num c.mc_minor_words);
      ("major_words", Json.Num c.mc_major_words);
      ("promoted_words", Json.Num c.mc_promoted_words);
      ( "work",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) c.mc_work)
      );
    ]

let of_json j =
  let num k = Option.bind (Json.member k j) Json.to_float in
  match (num "minor_words", num "major_words", num "promoted_words") with
  | Some minor, Some major, Some promoted ->
      let work =
        match Json.member "work" j with
        | Some (Json.Obj fields) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int v))
              fields
        | _ -> []
      in
      Some
        {
          mc_minor_words = minor;
          mc_major_words = major;
          mc_promoted_words = promoted;
          mc_work = List.sort compare work;
        }
  | _ -> None
