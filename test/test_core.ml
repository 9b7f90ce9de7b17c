(* Tests for the NNSmith generator: Algorithm 1 (insertion), Algorithm 2
   (attribute binning) and concretisation (lib/core). *)

module Config = Nnsmith_core.Config
module Gen = Nnsmith_core.Gen
module Graph = Nnsmith_ir.Graph
module Op = Nnsmith_ir.Op
module Conc = Nnsmith_ir.Ttype.Conc
module Validate = Nnsmith_ops.Validate
module Dtype = Nnsmith_tensor.Dtype
module Serial = Nnsmith_ir.Serial
module Splitmix = Nnsmith_parallel.Splitmix

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let gen ?(max_nodes = 10) ?(binning = true) ?(dtypes = [ Dtype.F32 ]) seed =
  Gen.generate
    {
      Config.default with
      seed;
      max_nodes;
      binning;
      leaf_dtypes = dtypes;
    }

let op_nodes g =
  List.filter
    (fun (n : Graph.node) ->
      match n.Graph.op with Op.Leaf _ -> false | _ -> true)
    (Graph.nodes g)

let test_generated_models_valid () =
  for seed = 1 to 40 do
    match gen seed with
    | exception Gen.Gen_failure _ -> ()
    | g -> (
        match Validate.check g with
        | Ok () -> ()
        | Error e -> Alcotest.failf "seed %d invalid: %s\n%s" seed e (Graph.to_string g))
  done

let test_generated_models_connected () =
  for seed = 41 to 70 do
    match gen seed with
    | exception Gen.Gen_failure _ -> ()
    | g -> check "connected" true (Graph.is_connected g)
  done

let test_target_size_reached () =
  let total = ref 0 and reached = ref 0 in
  for seed = 100 to 130 do
    match gen ~max_nodes:10 seed with
    | exception Gen.Gen_failure _ -> ()
    | g ->
        incr total;
        if List.length (op_nodes g) = 10 then incr reached
  done;
  (* insertion can stall, but overwhelmingly hits the target size *)
  check "most models reach 10 ops" true (!reached * 10 >= !total * 8)

let test_deterministic_per_seed () =
  let a = gen 777 and b = gen 777 in
  Alcotest.(check string) "same graph" (Graph.to_string a) (Graph.to_string b)

let test_seeds_differ () =
  check "different seeds differ" true
    (Graph.to_string (gen 1001) <> Graph.to_string (gen 1002))

let test_always_has_input () =
  for seed = 200 to 240 do
    match gen seed with
    | exception Gen.Gen_failure _ -> ()
    | g -> check "has a model input" true (Graph.inputs g <> [])
  done

let test_numel_cap_respected () =
  for seed = 300 to 330 do
    match gen seed with
    | exception Gen.Gen_failure _ -> ()
    | g ->
        List.iter
          (fun (n : Graph.node) ->
            check "tensor within cap" true
              (Conc.numel n.out_type <= Config.default.max_numel))
          (Graph.nodes g)
  done

let test_conv_weights_are_weights () =
  (* Conv2d's second operand must finalise as Weight, as in PyTorch. *)
  let found = ref 0 in
  for seed = 400 to 520 do
    match gen seed with
    | exception Gen.Gen_failure _ -> ()
    | g ->
        List.iter
          (fun (n : Graph.node) ->
            match n.Graph.op with
            | Op.Conv2d _ -> (
                incr found;
                match n.Graph.inputs with
                | [ _; w ] -> (
                    match (Graph.find g w).Graph.op with
                    | Op.Leaf Op.Model_weight -> ()
                    | other ->
                        Alcotest.failf "conv weight finalised as %s"
                          (Op.name other))
                | _ -> Alcotest.fail "conv arity")
            | _ -> ())
          (Graph.nodes g)
  done;
  check "saw some convolutions" true (!found > 0)

let test_binning_diversifies_dims () =
  (* Without binning the solver's boundary bias makes most dims 1; with
     binning the dimension distribution must be markedly richer. *)
  let distinct_dims binning =
    let dims = Hashtbl.create 16 in
    for seed = 600 to 650 do
      match gen ~binning seed with
      | exception Gen.Gen_failure _ -> ()
      | g ->
          List.iter
            (fun (n : Graph.node) ->
              List.iter (fun d -> Hashtbl.replace dims d ()) (Conc.dims n.out_type))
            (Graph.nodes g)
    done;
    Hashtbl.length dims
  in
  let with_bin = distinct_dims true and without = distinct_dims false in
  check
    (Printf.sprintf "binning dims (%d) > no-binning dims (%d)" with_bin without)
    true (with_bin > without)

let test_restricted_template_set () =
  let unary_only =
    Nnsmith_ops.Registry.filter (fun n -> n = "Tanh" || n = "Sigmoid")
  in
  let g =
    Gen.generate
      { Config.default with seed = 9; max_nodes = 5; templates = unary_only }
  in
  List.iter
    (fun (n : Graph.node) ->
      match n.Graph.op with
      | Op.Leaf _ | Op.Unary Op.Tanh | Op.Unary Op.Sigmoid -> ()
      | other -> Alcotest.failf "unexpected op %s" (Op.name other))
    (Graph.nodes g)

let test_multi_dtype_generation () =
  let saw = Hashtbl.create 4 in
  for seed = 700 to 730 do
    match gen ~dtypes:[ Dtype.F32; Dtype.F64; Dtype.I64 ] seed with
    | exception Gen.Gen_failure _ -> ()
    | g ->
        List.iter
          (fun (n : Graph.node) ->
            Hashtbl.replace saw (Conc.dtype n.out_type) ())
          (Graph.nodes g)
  done;
  check "f32 present" true (Hashtbl.mem saw Dtype.F32);
  check "i64 present" true (Hashtbl.mem saw Dtype.I64)

let test_topological_ids () =
  (* concretisation renumbers so every input id precedes its consumer *)
  for seed = 800 to 830 do
    match gen seed with
    | exception Gen.Gen_failure _ -> ()
    | g ->
        List.iter
          (fun (n : Graph.node) ->
            List.iter (fun i -> check "topo order" true (i < n.Graph.id)) n.Graph.inputs)
          (Graph.nodes g)
  done

let test_stats_reported () =
  let _, stats =
    Gen.generate_with_stats { Config.default with seed = 4242; max_nodes = 8 }
  in
  check "gen time measured" true (stats.gen_ms >= 0.);
  check_int "ops" 8 stats.ops;
  check "total nodes >= ops" true (stats.nodes_total >= stats.ops)

let test_larger_models () =
  match gen ~max_nodes:25 31415 with
  | exception Gen.Gen_failure _ -> Alcotest.fail "25-node generation failed"
  | g ->
      check "valid" true (Validate.is_valid g);
      check "big enough" true (List.length (op_nodes g) >= 20)

let test_diverse_ops_across_seeds () =
  let names = Hashtbl.create 32 in
  for seed = 900 to 1000 do
    match gen seed with
    | exception Gen.Gen_failure _ -> ()
    | g ->
        List.iter
          (fun (n : Graph.node) -> Hashtbl.replace names (Op.name n.Graph.op) ())
          (op_nodes g)
  done;
  check
    (Printf.sprintf "rich operator mix (%d kinds)" (Hashtbl.length names))
    true
    (Hashtbl.length names >= 30)

(* MD5 of what a root-1 campaign generates at indices 0-199 (10 nodes,
   binning on), recorded before the solver's propagation loop was
   reworked.  The range holds the solver-tail indices 59 and 75.  Solver
   speed-ups must leave it unchanged; a change that alters the generated
   graphs (a propagation work budget, say) re-baselines it on purpose. *)
let golden_generation_digest = "d48260be01223a81a51c56d65e54fbd0"

let test_golden_generation_digest () =
  let b = Buffer.create (1 lsl 18) in
  for index = 0 to 199 do
    let seed = Splitmix.derive ~root:1 ~index in
    Printf.bprintf b "index %d seed %d\n" index seed;
    match gen seed with
    | exception Gen.Gen_failure msg -> Printf.bprintf b "failure %s\n" msg
    | g -> Buffer.add_string b (Serial.to_string g)
  done;
  Alcotest.(check string)
    "root-1 generation digest" golden_generation_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let qcheck_generated_valid =
  QCheck.Test.make ~name:"every generated model type checks" ~count:40
    QCheck.(int_range 1 100000)
    (fun seed ->
      match gen seed with
      | exception Gen.Gen_failure _ -> true
      | g -> Validate.is_valid g)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "core"
    [
      ( "generation",
        [
          tc "validity" `Quick test_generated_models_valid;
          tc "connectivity" `Quick test_generated_models_connected;
          tc "target size" `Quick test_target_size_reached;
          tc "deterministic" `Quick test_deterministic_per_seed;
          tc "seeds differ" `Quick test_seeds_differ;
          tc "always has input" `Quick test_always_has_input;
          tc "numel cap" `Quick test_numel_cap_respected;
          tc "conv weights" `Quick test_conv_weights_are_weights;
          tc "topological ids" `Quick test_topological_ids;
          tc "stats" `Quick test_stats_reported;
          tc "larger models" `Quick test_larger_models;
          tc "restricted templates" `Quick test_restricted_template_set;
          tc "multi dtype" `Quick test_multi_dtype_generation;
          tc "operator diversity" `Slow test_diverse_ops_across_seeds;
          tc "golden digest" `Quick test_golden_generation_digest;
          QCheck_alcotest.to_alcotest qcheck_generated_valid;
        ] );
      ( "binning",
        [ tc "diversifies dims" `Quick test_binning_diversifies_dims ] );
    ]
