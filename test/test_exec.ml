(* Tests for compiled execution plans (lib/exec): bit-identity against the
   interpreter, incremental reference passes, dirty-set re-execution, and
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
module Tel = Nnsmith_telemetry.Telemetry

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

(* [Plan.run_reference] agrees with [Runner.run]: the same outputs bit for
   bit and the same NaN/Inf flag, or the same exception. *)
let check_reference ~what plan g binding =
  let attempt f = match f () with r -> Ok r | exception e -> Error e in
  match
    ( attempt (fun () -> interp_reference g binding),
      attempt (fun () -> Plan.run_reference plan binding) )
  with
  | Ok want, Ok got ->
      check (what ^ ": bad flag") (snd want) (snd got);
      check (what ^ ": outputs") true (outputs_equal (fst want) (fst got))
  | Error e, Error e' ->
      Alcotest.(check string)
        (what ^ ": exception") (Printexc.to_string e) (Printexc.to_string e')
  | Ok _, Error e ->
      Alcotest.failf "%s: only the plan raised %s" what (Printexc.to_string e)
  | Error e, Ok _ ->
      Alcotest.failf "%s: only the interpreter raised %s" what
        (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* run_reference is bit-identical to Runner.run across the rounds of one
   plan: the same binding again (nothing recomputes unless a value was
   NaN/Inf), a physically fresh copy (every leaf rebound), one leaf
   rebound, and back to the first binding.                              *)

let test_run_reference_matches_runner () =
  let tested = ref 0 in
  for seed = 0 to 119 do
    match gen_graph seed with
    | None -> ()
    | Some g ->
        incr tested;
        let rng = rng_of (seed + 1) in
        let binding = Runner.random_binding rng g in
        let copy = List.map (fun (id, v) -> (id, Nd.copy v)) binding in
        let rebound =
          let k = seed mod List.length copy in
          List.mapi
            (fun i (id, v) ->
              if i <> k then (id, v)
              else
                match (Graph.find g id).Graph.op with
                | Op.Leaf kind ->
                    (id, Runner.tensor_of_leaf rng kind (Graph.find g id).out_type ~lo:(-9.) ~hi:9.)
                | _ -> assert false)
            copy
        in
        let plan = Plan.build g in
        List.iteri
          (fun round (name, b) ->
            check_reference
              ~what:(Printf.sprintf "seed %d round %d (%s)" seed (round + 1) name)
              plan g b)
          [
            ("binding", binding);
            ("same binding", binding);
            ("fresh copy", copy);
            ("one leaf rebound", rebound);
            ("first binding", binding);
          ]
  done;
  check "generated enough graphs" true (!tested > 60)

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
  let plan = Plan.build g in
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
  check "dirty-set values match interpreter" true (outputs_equal want got);
  (* the reference pass over the plan's own leaves recomputes nothing;
     rebinding [b] recomputes d and e; a NaN leaf is flagged, stays invalid
     and recomputes with its consumers on the next pass *)
  let kernel_runs f =
    let before = Tel.counter_value "exec/kernel_runs" in
    let r = f () in
    (r, Tel.counter_value "exec/kernel_runs" - before)
  in
  Tel.set_enabled true;
  let own = [ (a, Plan.leaf_value plan a); (b, Plan.leaf_value plan b) ] in
  let (got, bad), runs = kernel_runs (fun () -> Plan.run_reference plan own) in
  check "reference over the search's leaves runs no kernel" true
    (runs = 0 && (not bad) && outputs_equal want got);
  let rebound = [ (a, Plan.leaf_value plan a); (b, v 2.) ] in
  let (got, _), runs = kernel_runs (fun () -> Plan.run_reference plan rebound) in
  check "rebinding b recomputes d and e" true (runs = 2 && outputs_equal want got);
  let nan = [ (a, Plan.leaf_value plan a); (b, v Float.nan) ] in
  let (_, bad), runs = kernel_runs (fun () -> Plan.run_reference plan nan) in
  check "NaN leaf: d and e recompute, flag set" true (runs = 2 && bad);
  let (_, bad), runs = kernel_runs (fun () -> Plan.run_reference plan nan) in
  check "NaN slots recompute again" true (runs = 2 && bad);
  let (got, bad), runs = kernel_runs (fun () -> Plan.run_reference plan rebound) in
  check "back to a finite binding" true
    (runs = 2 && (not bad) && outputs_equal want got);
  (* a leaf written in place and marked with [set_leaf] is rebound: its
     consumers recompute *)
  let ta = Plan.leaf_value plan a in
  Nd.set_f ta 0 7.;
  Plan.set_leaf plan a ta;
  let (got, _), runs = kernel_runs (fun () -> Plan.run_reference plan rebound) in
  check "in-place write recomputes c and e" true
    (runs = 2 && outputs_equal (fst (interp_reference g rebound)) got);
  (* a raise leaves no stale slot behind: [a] is rebound before [b] is
     found missing, so c and e must recompute on the next pass *)
  let a4 = v 4. in
  (match Plan.run_reference plan [ (a, a4) ] with
  | exception Runner.Missing_leaf id -> check "missing b raised" true (id = b)
  | _ -> Alcotest.fail "missing leaf not raised");
  let after = [ (a, a4); (b, Plan.leaf_value plan b) ] in
  let got, _ = Plan.run_reference plan after in
  check "after a raise the pass matches the interpreter" true
    (outputs_equal (fst (interp_reference g after)) got);
  Tel.set_enabled false

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
(* The per-domain plan cache hands back one compiled plan per graph value
   (and a fresh one for a physically distinct copy).                    *)

let test_plan_cache () =
  match gen_graph 42 with
  | None -> Alcotest.fail "seed 42 failed to generate"
  | Some g ->
      Plan.cohort_clear ();
      let p = Plan.for_graph g in
      check "one plan per graph" true (Plan.for_graph g == p);
      check "the plan of that graph" true (Plan.graph p == g);
      let copy = Graph.of_nodes (Graph.nodes g) in
      check "a physically distinct copy gets its own plan" true
        (not (Plan.for_graph copy == p));
      (* one slot: the copy's lookup replaced g's plan *)
      let p' = Plan.for_graph g in
      check "g's plan again after the copy" true (Plan.graph p' == g);
      check "repeated lookups share it" true (Plan.for_graph g == p')

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
