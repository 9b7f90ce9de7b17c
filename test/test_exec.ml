(* Tests for compiled execution plans (lib/exec): bit-identity against the
   interpreter, buffer-arena aliasing safety, dirty-set re-execution, and
   the fused in-place Adam step. *)

module Dtype = Nnsmith_tensor.Dtype
module Nd = Nnsmith_tensor.Nd
module Op = Nnsmith_ir.Op
module Graph = Nnsmith_ir.Graph
module Conc = Nnsmith_ir.Ttype.Conc
module Gen_ = Nnsmith_core.Gen
module Config = Nnsmith_core.Config
module Runner = Nnsmith_ops.Runner
module Adam = Nnsmith_grad.Adam
module Plan = Nnsmith_exec.Plan

let check = Alcotest.(check bool)
let rng_of seed = Random.State.make [| seed |]

let gen_graph seed =
  match Gen_.generate { Config.default with seed; max_nodes = 12 } with
  | exception Gen_.Gen_failure _ -> None
  | g -> Some g

(* Reference oracle results straight from the interpreter. *)
let interp_reference g binding =
  let all = Runner.run g binding in
  let bad = List.exists (fun (_, v) -> Nd.has_bad v) all in
  ( List.map
      (fun (n : Graph.node) -> (n.Graph.id, List.assoc n.Graph.id all))
      (Graph.outputs g),
    bad )

let outputs_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (i, x) (j, y) -> i = j && Nd.equal x y) a b

(* ------------------------------------------------------------------ *)
(* run_reference is bit-identical to Runner.run, arena on and off,
   including across repeated (steady-state) runs of one plan.           *)

let test_run_reference_matches_runner () =
  let tested = ref 0 in
  for seed = 0 to 119 do
    match gen_graph seed with
    | None -> ()
    | Some g ->
        incr tested;
        let binding = Runner.random_binding (rng_of (seed + 1)) g in
        let want = interp_reference g binding in
        let arena = Plan.build ~reuse:true g in
        let keep = Plan.build ~reuse:false g in
        List.iter
          (fun (plan, name) ->
            (* twice: the second run exercises steady-state buffer reuse *)
            for round = 1 to 2 do
              let got = Plan.run_reference plan binding in
              check
                (Printf.sprintf "seed %d %s round %d: bad flag" seed name round)
                (snd want) (snd got);
              check
                (Printf.sprintf "seed %d %s round %d: outputs" seed name round)
                true
                (outputs_equal (fst want) (fst got))
            done)
          [ (arena, "arena"); (keep, "keep-all") ]
  done;
  check "generated enough graphs" true (!tested > 60)

(* ------------------------------------------------------------------ *)
(* Arena aliasing safety: two slots may share storage only when every
   consumer of the earlier node has already run by the time the later
   node executes (and only donors with consumers are ever pooled).      *)

let same_storage (a : Nd.t) (b : Nd.t) =
  match (a.Nd.data, b.Nd.data) with
  | Nd.F x, Nd.F y -> x == y
  | Nd.I x, Nd.I y -> x == y
  | Nd.B x, Nd.B y -> x == y
  | _ -> false

let test_arena_aliasing_safe () =
  let shared_pairs = ref 0 in
  for seed = 0 to 119 do
    match gen_graph seed with
    | None -> ()
    | Some g ->
        let plan = Plan.build ~reuse:true g in
        let topo = Array.of_list (Graph.nodes g) in
        let pos = Hashtbl.create 32 in
        Array.iteri
          (fun i (n : Graph.node) -> Hashtbl.replace pos n.Graph.id i)
          topo;
        let last_use id =
          List.fold_left
            (fun acc (c : Graph.node) ->
              max acc (Hashtbl.find pos c.Graph.id))
            (-1)
            (Graph.consumers g id)
        in
        let buffers = Array.of_list (Plan.slot_buffers plan) in
        Array.iteri
          (fun i (id_a, buf_a) ->
            Array.iteri
              (fun j (id_b, buf_b) ->
                if i < j && same_storage buf_a buf_b then begin
                  incr shared_pairs;
                  let lu = last_use id_a in
                  check
                    (Printf.sprintf "seed %d: donor %d has consumers" seed id_a)
                    true (lu >= 0);
                  check
                    (Printf.sprintf
                       "seed %d: nodes %d/%d share a buffer but %d is live"
                       seed id_a id_b id_a)
                    true
                    (lu < Hashtbl.find pos id_b)
                end)
              buffers)
          buffers
  done;
  check "arena shared at least one buffer somewhere" true (!shared_pairs > 0)

(* A relu chain must reuse buffers: node k's output dies as soon as node
   k+1 has run, so node k+2 can take its storage. *)
let chain_graph n =
  let ty = Conc.make Dtype.F32 [ 8 ] in
  let g, x = Graph.add_node Graph.empty ~op:(Op.Leaf Op.Model_input) ~inputs:[] ~out_type:ty in
  let g = ref g and prev = ref x in
  for _ = 1 to n do
    let g', id = Graph.add_node !g ~op:(Op.Unary Op.Relu) ~inputs:[ !prev ] ~out_type:ty in
    g := g';
    prev := id
  done;
  !g

let test_arena_reuses_chain () =
  let g = chain_graph 6 in
  let plan = Plan.build ~reuse:true g in
  let buffers = Array.of_list (Plan.slot_buffers plan) in
  let shared = ref 0 in
  Array.iteri
    (fun i (_, a) ->
      Array.iteri (fun j (_, b) -> if i < j && same_storage a b then incr shared) buffers)
    buffers;
  check "relu chain reuses buffers" true (!shared > 0);
  (* and still computes the right thing *)
  let binding = Runner.random_binding (rng_of 7) g in
  check "chain outputs match interpreter" true
    (outputs_equal (fst (interp_reference g binding)) (fst (Plan.run_reference plan binding)))

(* ------------------------------------------------------------------ *)
(* Dirty-set re-execution: after touching one leaf, only nodes reachable
   from it recompute; a NaN leaf stops the forward pass immediately.    *)

let test_dirty_set_diamond () =
  let ty = Conc.make Dtype.F64 [ 4 ] in
  let g, a = Graph.add_node Graph.empty ~op:(Op.Leaf Op.Model_input) ~inputs:[] ~out_type:ty in
  let g, b = Graph.add_node g ~op:(Op.Leaf Op.Model_input) ~inputs:[] ~out_type:ty in
  let g, c = Graph.add_node g ~op:(Op.Unary Op.Tanh) ~inputs:[ a ] ~out_type:ty in
  let g, d = Graph.add_node g ~op:(Op.Unary Op.Tanh) ~inputs:[ b ] ~out_type:ty in
  let g, _e = Graph.add_node g ~op:(Op.Binary Op.Add) ~inputs:[ c; d ] ~out_type:ty in
  let plan = Plan.build ~reuse:false g in
  let v x = Nd.full_f Dtype.F64 [| 4 |] x in
  Plan.set_leaf plan a (v 1.);
  Plan.set_leaf plan b (v 2.);
  Plan.invalidate_all plan;
  let bad, computed = Plan.forward_until_bad plan in
  check "initial pass computes all 3 ops" true (bad = None && computed = 3);
  (* touch only [a]: tanh(b) must not recompute *)
  Plan.set_leaf plan a (v 3.);
  Plan.invalidate plan [ a ];
  let bad, computed = Plan.forward_until_bad plan in
  check "dirty pass recomputes only c and e" true (bad = None && computed = 2);
  (* nothing dirty: nothing runs *)
  let bad, computed = Plan.forward_until_bad plan in
  check "clean pass computes nothing" true (bad = None && computed = 0);
  (* a NaN leaf is itself the first bad node; no ops run *)
  Plan.set_leaf plan a (v Float.nan);
  Plan.invalidate plan [ a ];
  (match Plan.forward_until_bad plan with
  | Some (n, _), computed ->
      check "bad leaf reported first" true (n.Graph.id = a && computed = 0)
  | None, _ -> Alcotest.fail "NaN leaf not caught");
  (* recover: results match a fresh interpreter run *)
  Plan.set_leaf plan a (v 5.);
  Plan.invalidate plan [ a ];
  let bad, computed = Plan.forward_until_bad plan in
  check "recovery recomputes c and e" true (bad = None && computed = 2);
  let binding = [ (a, v 5.); (b, v 2.) ] in
  let want, _ = interp_reference g binding in
  let got =
    List.map
      (fun (n : Graph.node) ->
        (n.Graph.id, Plan.leaf_value plan n.Graph.id))
      (Graph.outputs g)
  in
  check "dirty-set values match interpreter" true (outputs_equal want got)

(* ------------------------------------------------------------------ *)
(* The fused in-place Adam step is bit-identical to the allocating one. *)

let test_update_into_matches_update () =
  List.iter
    (fun dtype ->
      let shape = [| 5 |] in
      let rng = rng_of 11 in
      let legacy = Adam.create () and fused = Adam.create () in
      Adam.preallocate fused [ (0, shape) ];
      let p_legacy = ref (Nd.random_f (rng_of 3) dtype shape ~lo:1. ~hi:9.) in
      let p_fused = Nd.copy !p_legacy in
      for step = 1 to 6 do
        let grad =
          Nd.init_f Dtype.F64 shape (fun _ -> Random.State.float rng 4. -. 2.)
        in
        p_legacy := Adam.update legacy ~id:0 ~param:!p_legacy ~grad;
        Adam.tick legacy;
        (match Adam.update_into fused ~id:0 ~param:p_fused ~grad with
        | `Bad -> Alcotest.failf "unexpected Bad at step %d" step
        | `Changed | `Unchanged -> ());
        Adam.tick fused;
        check
          (Printf.sprintf "%s step %d params bit-equal" (Dtype.to_string dtype) step)
          true
          (Nd.equal !p_legacy p_fused)
      done;
      (* a NaN gradient: legacy result goes bad, fused reports `Bad and
         leaves the parameter untouched *)
      let nan_grad = Nd.full_f Dtype.F64 shape Float.nan in
      let before = Nd.copy p_fused in
      let legacy_bad =
        Nd.has_bad (Adam.update legacy ~id:0 ~param:!p_legacy ~grad:nan_grad)
      in
      check "legacy update went bad" true legacy_bad;
      (match Adam.update_into fused ~id:0 ~param:p_fused ~grad:nan_grad with
      | `Bad -> ()
      | `Changed | `Unchanged -> Alcotest.fail "fused update missed Bad");
      check "param untouched on Bad" true (Nd.equal before p_fused);
      (* zero gradient on a zeroed schedule steps by exactly nothing *)
      let zeroed = Adam.create () in
      let p = Nd.full_f dtype shape 2. in
      match Adam.update_into zeroed ~id:1 ~param:p ~grad:(Nd.full_f Dtype.F64 shape 0.) with
      | `Unchanged -> ()
      | `Changed | `Bad -> Alcotest.fail "zero grad should leave param unchanged")
    [ Dtype.F32; Dtype.F64 ]

(* reset must zero moments in place: a reset state behaves like a fresh one *)
let test_adam_reset_zeroes () =
  let shape = [| 3 |] in
  let grad = Nd.of_floats Dtype.F64 shape [| 0.5; -1.; 2. |] in
  let p0 = Nd.full_f Dtype.F64 shape 4. in
  let fresh = Adam.create () in
  let reused = Adam.create () in
  Adam.preallocate reused [ (0, shape) ];
  (* dirty the reused state, then reset *)
  ignore (Adam.update_into reused ~id:0 ~param:(Nd.copy p0) ~grad);
  Adam.tick reused;
  Adam.reset reused;
  let a = Nd.copy p0 and b = Nd.copy p0 in
  ignore (Adam.update_into fresh ~id:0 ~param:a ~grad);
  ignore (Adam.update_into reused ~id:0 ~param:b ~grad);
  check "reset state matches fresh state" true (Nd.equal a b)

(* ------------------------------------------------------------------ *)
(* The per-domain plan cache hands back the same compiled plan for the
   same graph (and a fresh one after the graph changes).                *)

let test_plan_cache () =
  match gen_graph 42 with
  | None -> Alcotest.fail "seed 42 failed to generate"
  | Some g ->
      check "for_search cached" true (Plan.for_search g == Plan.for_search g);
      check "for_oracle cached" true (Plan.for_oracle g == Plan.for_oracle g);
      check "search and oracle plans differ" true
        (Plan.graph (Plan.for_search g) == Plan.graph (Plan.for_oracle g))

let () =
  Alcotest.run "exec"
    [
      ( "plan",
        [
          Alcotest.test_case "run_reference = Runner.run (bitwise)" `Quick
            test_run_reference_matches_runner;
          Alcotest.test_case "plan cache by physical graph" `Quick
            test_plan_cache;
        ] );
      ( "arena",
        [
          Alcotest.test_case "aliasing respects liveness" `Quick
            test_arena_aliasing_safe;
          Alcotest.test_case "relu chain reuses buffers" `Quick
            test_arena_reuses_chain;
        ] );
      ( "dirty-set",
        [
          Alcotest.test_case "diamond recompute counts" `Quick
            test_dirty_set_diamond;
        ] );
      ( "adam",
        [
          Alcotest.test_case "update_into = update (bitwise)" `Quick
            test_update_into_matches_update;
          Alcotest.test_case "reset zeroes moments in place" `Quick
            test_adam_reset_zeroes;
        ] );
    ]
