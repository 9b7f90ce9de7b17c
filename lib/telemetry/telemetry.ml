(* Telemetry registry with per-domain sinks.

   Every recording entry point (incr/observe/with_span/event) writes into
   the *current domain's* sink, held in domain-local storage: worker domains
   spawned by [Nnsmith_parallel.Pool] accumulate into private tables with no
   synchronisation on the hot path, and the pool folds each worker's sink
   into the spawning domain's sink at join time via [merge_sink].  On a
   single domain this behaves exactly like the old process-global registry:
   the main domain owns one sink for the whole process. *)

let enabled = Atomic.make true
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled
let now_ms () = Unix.gettimeofday () *. 1000.

(* ------------------------------------------------------------------ *)
(* Histogram buckets: log2, exponent e covers (2^(e-1), 2^e].          *)

let h_lo = -10
let h_hi = 20
let bucket_range = (h_lo, h_hi)
let h_nbuckets = h_hi - h_lo + 1

let bucket_exponent v =
  if v <= 0. then h_lo
  else
    let e = int_of_float (Float.ceil (Float.log2 v)) in
    if e < h_lo then h_lo else if e > h_hi then h_hi else e

type histo = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

let fresh_histo () =
  {
    h_count = 0;
    h_sum = 0.;
    h_min = infinity;
    h_max = neg_infinity;
    h_buckets = Array.make h_nbuckets 0;
  }

type span_stat = {
  mutable s_count : int;
  mutable s_total : float;
  mutable s_self : float;
}

type frame = { f_name : string; f_start : float; mutable f_child : float }

type event_view = {
  ev_seq : int;
  ev_at_ms : float;
  ev_kind : string;
  ev_msg : string;
}

(* One domain's private tables. *)
type sink = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, histo) Hashtbl.t;
  spans : (string, span_stat) Hashtbl.t;
  mutable stack : frame list;
  ring : event_view Queue.t;
  mutable next_seq : int;
  mutable ring_capacity : int;
  mutable epoch : float;
}

let fresh_sink () =
  {
    counters = Hashtbl.create 64;
    histograms = Hashtbl.create 32;
    spans = Hashtbl.create 32;
    stack = [];
    ring = Queue.create ();
    next_seq = 0;
    ring_capacity = 64;
    epoch = now_ms ();
  }

let dls : sink Domain.DLS.key = Domain.DLS.new_key fresh_sink
let cur () = Domain.DLS.get dls
let current_sink = cur

(* ------------------------------------------------------------------ *)
(* Counters.                                                           *)

let incr ?(by = 1) name =
  if Atomic.get enabled then
    let s = cur () in
    match Hashtbl.find_opt s.counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace s.counters name (ref by)

let counter_value name =
  match Hashtbl.find_opt (cur ()).counters name with
  | Some r -> !r
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Histograms.                                                         *)

let observe name v =
  if Atomic.get enabled then begin
    let s = cur () in
    let h =
      match Hashtbl.find_opt s.histograms name with
      | Some h -> h
      | None ->
          let h = fresh_histo () in
          Hashtbl.replace s.histograms name h;
          h
    in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let i = bucket_exponent v - h_lo in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1
  end

(* ------------------------------------------------------------------ *)
(* Spans.                                                              *)

let span_stat s name =
  match Hashtbl.find_opt s.spans name with
  | Some st -> st
  | None ->
      let st = { s_count = 0; s_total = 0.; s_self = 0. } in
      Hashtbl.replace s.spans name st;
      st

let with_span name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let s = cur () in
    let fr = { f_name = name; f_start = now_ms (); f_child = 0. } in
    s.stack <- fr :: s.stack;
    let finish () =
      let elapsed = now_ms () -. fr.f_start in
      (match s.stack with
      | top :: rest when top == fr -> s.stack <- rest
      | _ ->
          (* an escaping exception skipped inner finishes; drop every frame
             above ours as well as ours *)
          let rec unwind = function
            | top :: rest -> if top == fr then rest else unwind rest
            | [] -> []
          in
          s.stack <- unwind s.stack);
      (match s.stack with
      | parent :: _ -> parent.f_child <- parent.f_child +. elapsed
      | [] -> ());
      let st = span_stat s fr.f_name in
      st.s_count <- st.s_count + 1;
      st.s_total <- st.s_total +. elapsed;
      st.s_self <- st.s_self +. (elapsed -. fr.f_child)
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Event ring buffer.                                                  *)

let push_event s ~at_ms kind msg =
  Queue.push
    { ev_seq = s.next_seq; ev_at_ms = at_ms; ev_kind = kind; ev_msg = msg }
    s.ring;
  s.next_seq <- s.next_seq + 1;
  while Queue.length s.ring > s.ring_capacity do
    ignore (Queue.pop s.ring)
  done

let event kind msg =
  if Atomic.get enabled then
    let s = cur () in
    push_event s ~at_ms:(now_ms () -. s.epoch) kind msg

let set_ring_capacity n =
  let s = cur () in
  s.ring_capacity <- max 1 n;
  Queue.clear s.ring

(* ------------------------------------------------------------------ *)
(* Reset.                                                              *)

let reset () =
  let s = cur () in
  Hashtbl.reset s.counters;
  Hashtbl.reset s.histograms;
  Hashtbl.reset s.spans;
  s.stack <- [];
  Queue.clear s.ring;
  s.next_seq <- 0;
  s.epoch <- now_ms ()

(* ------------------------------------------------------------------ *)
(* Merging (worker sink -> this domain's sink, at pool join).          *)

let merge_sink (w : sink) =
  let s = cur () in
  Hashtbl.iter
    (fun name r ->
      match Hashtbl.find_opt s.counters name with
      | Some dst -> dst := !dst + !r
      | None -> Hashtbl.replace s.counters name (ref !r))
    w.counters;
  Hashtbl.iter
    (fun name h ->
      let dst =
        match Hashtbl.find_opt s.histograms name with
        | Some dst -> dst
        | None ->
            let dst = fresh_histo () in
            Hashtbl.replace s.histograms name dst;
            dst
      in
      dst.h_count <- dst.h_count + h.h_count;
      dst.h_sum <- dst.h_sum +. h.h_sum;
      if h.h_min < dst.h_min then dst.h_min <- h.h_min;
      if h.h_max > dst.h_max then dst.h_max <- h.h_max;
      Array.iteri
        (fun i c -> dst.h_buckets.(i) <- dst.h_buckets.(i) + c)
        h.h_buckets)
    w.histograms;
  Hashtbl.iter
    (fun name st ->
      let dst = span_stat s name in
      dst.s_count <- dst.s_count + st.s_count;
      dst.s_total <- dst.s_total +. st.s_total;
      dst.s_self <- dst.s_self +. st.s_self)
    w.spans;
  (* Events keep their wall-clock order: the worker's timestamps are
     rebased from its epoch onto ours, then appended through the normal
     ring (fresh seq numbers, capacity enforced). *)
  let offset = w.epoch -. s.epoch in
  Queue.iter
    (fun e -> push_event s ~at_ms:(e.ev_at_ms +. offset) e.ev_kind e.ev_msg)
    w.ring

(* ------------------------------------------------------------------ *)
(* Snapshots.                                                          *)

type histo_view = {
  hv_count : int;
  hv_sum : float;
  hv_min : float;
  hv_max : float;
  hv_buckets : (int * int) list;
}

type span_view = { sv_count : int; sv_total_ms : float; sv_self_ms : float }

type snapshot = {
  at_ms : float;
  counters : (string * int) list;
  histograms : (string * histo_view) list;
  spans : (string * span_view) list;
  events : event_view list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

let snapshot () : snapshot =
  let s = cur () in
  {
    at_ms = now_ms () -. s.epoch;
    counters = sorted_bindings s.counters (fun r -> !r);
    histograms =
      sorted_bindings s.histograms (fun h ->
          let buckets = ref [] in
          for i = h_nbuckets - 1 downto 0 do
            if h.h_buckets.(i) > 0 then
              buckets := (i + h_lo, h.h_buckets.(i)) :: !buckets
          done;
          {
            hv_count = h.h_count;
            hv_sum = h.h_sum;
            hv_min = h.h_min;
            hv_max = h.h_max;
            hv_buckets = !buckets;
          });
    spans =
      sorted_bindings s.spans (fun st ->
          {
            sv_count = st.s_count;
            sv_total_ms = st.s_total;
            sv_self_ms = st.s_self;
          });
    events = List.of_seq (Queue.to_seq s.ring);
  }

(* ------------------------------------------------------------------ *)
(* JSONL export / import.                                              *)

let json_of_snapshot (s : snapshot) : Json.t =
  let num f = Json.Num f in
  let inum i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("at_ms", num s.at_ms);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, inum v)) s.counters));
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, h) ->
               ( k,
                 Json.Obj
                   [
                     ("count", inum h.hv_count);
                     ("sum", num h.hv_sum);
                     ("min", num h.hv_min);
                     ("max", num h.hv_max);
                     ( "buckets",
                       Json.Obj
                         (List.map
                            (fun (e, c) -> (string_of_int e, inum c))
                            h.hv_buckets) );
                   ] ))
             s.histograms) );
      ( "spans",
        Json.Obj
          (List.map
             (fun (k, sp) ->
               ( k,
                 Json.Obj
                   [
                     ("count", inum sp.sv_count);
                     ("total_ms", num sp.sv_total_ms);
                     ("self_ms", num sp.sv_self_ms);
                   ] ))
             s.spans) );
      ( "events",
        Json.Arr
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("seq", inum e.ev_seq);
                   ("at_ms", num e.ev_at_ms);
                   ("kind", Json.Str e.ev_kind);
                   ("msg", Json.Str e.ev_msg);
                 ])
             s.events) );
    ]

let to_jsonl s = Json.to_string (json_of_snapshot s)

exception Bad of string

let get name j =
  match Json.member name j with
  | Some v -> v
  | None -> raise (Bad ("missing key " ^ name))

let fnum j =
  match Json.to_float j with
  | Some f -> f
  | None -> raise (Bad "expected a number")

let fint j = int_of_float (fnum j)

let fstr j =
  match Json.to_str j with
  | Some s -> s
  | None -> raise (Bad "expected a string")

let fobj = function
  | Json.Obj kvs -> kvs
  | _ -> raise (Bad "expected an object")

let farr = function Json.Arr xs -> xs | _ -> raise (Bad "expected an array")

let snapshot_of_json j : snapshot =
  {
    at_ms = fnum (get "at_ms" j);
    counters = List.map (fun (k, v) -> (k, fint v)) (fobj (get "counters" j));
    histograms =
      List.map
        (fun (k, h) ->
          ( k,
            {
              hv_count = fint (get "count" h);
              hv_sum = fnum (get "sum" h);
              hv_min = fnum (get "min" h);
              hv_max = fnum (get "max" h);
              hv_buckets =
                List.map
                  (fun (e, c) ->
                    match int_of_string_opt e with
                    | Some e -> (e, fint c)
                    | None -> raise (Bad ("bad bucket exponent " ^ e)))
                  (fobj (get "buckets" h));
            } ))
        (fobj (get "histograms" j));
    spans =
      List.map
        (fun (k, sp) ->
          ( k,
            {
              sv_count = fint (get "count" sp);
              sv_total_ms = fnum (get "total_ms" sp);
              sv_self_ms = fnum (get "self_ms" sp);
            } ))
        (fobj (get "spans" j));
    events =
      List.map
        (fun e ->
          {
            ev_seq = fint (get "seq" e);
            ev_at_ms = fnum (get "at_ms" e);
            ev_kind = fstr (get "kind" e);
            ev_msg = fstr (get "msg" e);
          })
        (farr (get "events" j));
  }

let snapshot_of_jsonl line =
  match Json.parse line with
  | Error m -> Error m
  | Ok j -> ( try Ok (snapshot_of_json j) with Bad m -> Error m)

let append_jsonl path s =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (to_jsonl s);
  output_char oc '\n';
  close_out oc

type jsonl_read = {
  jr_snapshots : snapshot list;  (** in file order *)
  jr_errors : (int * string) list;  (** (1-based line, message) *)
}

let read_jsonl path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let snaps = ref [] and errs = ref [] and lineno = ref 0 in
          (try
             while true do
               let line = input_line ic in
               (* [incr] here is this module's counter bump, not Stdlib's *)
               lineno := !lineno + 1;
               if String.trim line <> "" then
                 match snapshot_of_jsonl line with
                 | Ok s -> snaps := s :: !snaps
                 | Error m -> errs := (!lineno, m) :: !errs
             done
           with End_of_file -> ());
          Ok
            { jr_snapshots = List.rev !snaps; jr_errors = List.rev !errs })

(* ------------------------------------------------------------------ *)
(* Human-readable table.                                               *)

let render_table (s : snapshot) : string =
  let b = Buffer.create 1024 in
  Printf.bprintf b "== telemetry @ %.1f ms ==\n" s.at_ms;
  if s.counters <> [] then begin
    Printf.bprintf b "counters:\n";
    List.iter
      (fun (k, v) -> Printf.bprintf b "  %-36s %10d\n" k v)
      s.counters
  end;
  if s.spans <> [] then begin
    Printf.bprintf b "spans:%32s %8s %12s %12s\n" "" "count" "total_ms"
      "self_ms";
    List.iter
      (fun (k, sp) ->
        Printf.bprintf b "  %-36s %8d %12.2f %12.2f\n" k sp.sv_count
          sp.sv_total_ms sp.sv_self_ms)
      s.spans
  end;
  if s.histograms <> [] then begin
    Printf.bprintf b "histograms:%27s %8s %12s %10s %10s\n" "" "count" "sum"
      "min" "max";
    List.iter
      (fun (k, h) ->
        Printf.bprintf b "  %-36s %8d %12.2f %10.3f %10.3f\n" k h.hv_count
          h.hv_sum h.hv_min h.hv_max;
        let cells =
          List.map
            (fun (e, c) -> Printf.sprintf "<=2^%d:%d" e c)
            h.hv_buckets
        in
        if cells <> [] then
          Printf.bprintf b "      %s\n" (String.concat " " cells))
      s.histograms
  end;
  if s.events <> [] then begin
    Printf.bprintf b "events (last %d):\n" (List.length s.events);
    List.iter
      (fun e ->
        Printf.bprintf b "  [%d] %9.1fms %-10s %s\n" e.ev_seq e.ev_at_ms
          e.ev_kind e.ev_msg)
      s.events
  end;
  Buffer.contents b
