(* The stored model suite of the suite-retest and suite-hunt workloads:
   pre-generated 10-node NNSmith models, each with the test seed that its
   input search derives from.  Storing the models keeps a generator change
   from shifting these workloads' inputs; [generate] rebuilds the file from
   its recorded root seed, and [load] checks it against the recorded
   digest. *)

module Graph = Nnsmith_ir.Graph
module Serial = Nnsmith_ir.Serial
module Config = Nnsmith_core.Config
module Gen = Nnsmith_core.Gen
module Splitmix = Nnsmith_parallel.Splitmix
module Faults = Nnsmith_faults.Faults
module Inputs = Nnsmith_difftest.Inputs
module Exporter = Nnsmith_difftest.Exporter

type model = { m_index : int; m_seed : int; m_graph : Graph.t }

let root = 5
let max_nodes = 10
let count = 3000
let models_file dir = Filename.concat dir "models.nns"
let digest_file dir = Filename.concat dir "DIGEST"

let header =
  Printf.sprintf "# nnsmith suite root=%d max_nodes=%d models=%d\n" root
    max_nodes count

let digest_line contents =
  Printf.sprintf "root=%d max_nodes=%d models=%d md5=%s" root max_nodes count
    (Digest.to_hex (Digest.string contents))

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* A model belongs in the suite only if every stage the workloads run on it
   completes, with the seeded defects off and on: the workloads must have
   no failing operations. *)
let usable seed g =
  let stages () =
    let rng = Random.State.make [| seed |] in
    ignore (Inputs.find_binding ~max_iters:64 rng g);
    ignore (Exporter.export g)
  in
  let all_ids = List.map (fun (b : Faults.bug) -> b.b_id) Faults.catalogue in
  match
    stages ();
    Faults.with_bugs all_ids stages
  with
  | () -> true
  | exception _ -> false

(* Rebuild the suite from [root], exactly as a campaign at that root would
   generate test indices 0, 1, 2, ...; writes the models and the digest
   into [dir] and returns the digest line. *)
let generate dir =
  let b = Buffer.create (1 lsl 21) in
  Buffer.add_string b header;
  let kept = ref 0 and index = ref 0 in
  while !kept < count do
    let seed = Splitmix.derive ~root ~index:!index in
    (match Gen.generate { Config.default with seed; max_nodes; binning = true } with
    | exception _ -> ()
    | g ->
        if usable seed g then begin
          Printf.bprintf b "model %d seed %d\n" !index seed;
          Buffer.add_string b (Serial.to_string g);
          incr kept
        end);
    incr index
  done;
  let contents = Buffer.contents b in
  write_file (models_file dir) contents;
  let line = digest_line contents in
  write_file (digest_file dir) (line ^ "\n");
  line

let parse contents =
  let models = ref [] in
  let flush = function
    | Some (m_index, m_seed, lines) ->
        let text = String.concat "\n" (List.rev lines) ^ "\n" in
        let m_graph = Serial.of_string text in
        (* the stored text must be what the serializer writes back *)
        if Serial.to_string m_graph <> text then
          failwith (Printf.sprintf "suite model %d does not round-trip" m_index);
        models := { m_index; m_seed; m_graph } :: !models
    | None -> ()
  in
  let cur =
    List.fold_left
      (fun cur line ->
        if line = "" || line.[0] = '#' then cur
        else
          match String.split_on_char ' ' line with
          | [ "model"; i; "seed"; s ] ->
              flush cur;
              Some (int_of_string i, int_of_string s, [])
          | _ -> (
              match cur with
              | Some (i, s, lines) -> Some (i, s, line :: lines)
              | None -> failwith "suite: node line before any model header"))
      None
      (String.split_on_char '\n' contents)
  in
  flush cur;
  Array.of_list (List.rev !models)

(* Read the stored suite and check it against the recorded digest and
   model count; any mismatch is fatal. *)
let load dir =
  let contents = read_file (models_file dir) in
  let recorded = String.trim (read_file (digest_file dir)) in
  let actual = digest_line contents in
  if actual <> recorded then
    failwith
      (Printf.sprintf "suite digest mismatch: recorded %S, loaded %S" recorded
         actual);
  let models = parse contents in
  if Array.length models <> count then
    failwith
      (Printf.sprintf "suite holds %d models, expected %d" (Array.length models)
         count);
  models
