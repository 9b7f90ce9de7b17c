(* Property-based cross-validation: every optimised kernel and every stage
   of the pipeline is compared against an independent naive reference
   implementation on randomised inputs. *)

module Dtype = Nnsmith_tensor.Dtype
module Shape = Nnsmith_tensor.Shape
module Nd = Nnsmith_tensor.Nd
module T = Nnsmith_tensor.Transform
module R = Nnsmith_tensor.Reduce
module L = Nnsmith_tensor.Linalg
module Op = Nnsmith_ir.Op
module Graph = Nnsmith_ir.Graph
module Conc = Nnsmith_ir.Ttype.Conc
module Gen_ = Nnsmith_core.Gen
module Config = Nnsmith_core.Config
module Runner = Nnsmith_ops.Runner

let close a b =
  (Float.is_nan a && Float.is_nan b)
  || Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let tensors_close a b =
  Nd.numel a = Nd.numel b
  &&
  let ok = ref true in
  for i = 0 to Nd.numel a - 1 do
    if not (close (Nd.to_float a i) (Nd.to_float b i)) then ok := false
  done;
  !ok

let random_tensor rng dims =
  Nd.init_f Dtype.F64 (Array.of_list dims)
    (fun _ -> Random.State.float rng 4. -. 2.)

let rng_of seed = Random.State.make [| seed |]

(* ------------------------------------------------------------------ *)
(* Broadcast map2 vs a naive index-walking reference                    *)

let naive_broadcast_add a b =
  let out_shape =
    Option.get (Shape.broadcast (Nd.shape a) (Nd.shape b))
  in
  Nd.init_f Dtype.F64 out_shape (fun i ->
      let idx = Shape.unravel out_shape i in
      let pick t =
        let r = Nd.rank t and ro = Array.length out_shape in
        let tidx =
          Array.init r (fun k ->
              let o = idx.(k + ro - r) in
              if (Nd.shape t).(k) = 1 then 0 else o)
        in
        Nd.to_float t (Shape.ravel (Nd.shape t) tidx)
      in
      pick a +. pick b)

let prop_broadcast_add =
  QCheck.Test.make ~name:"map2 broadcast = naive reference" ~count:300
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = rng_of seed in
      let ro = 1 + Random.State.int rng 3 in
      let out = List.init ro (fun _ -> 1 + Random.State.int rng 4) in
      let shrink dims =
        (* random sub-broadcast shape: drop leading dims, 1-out some *)
        let keep = Random.State.int rng (List.length dims + 1) in
        List.filteri (fun i _ -> i >= keep) dims
        |> List.map (fun d -> if Random.State.bool rng then 1 else d)
      in
      let a = random_tensor rng (shrink out) and b = random_tensor rng out in
      tensors_close (Nd.map2_f Dtype.F64 ( +. ) a b) (naive_broadcast_add a b))

(* ------------------------------------------------------------------ *)
(* Matmul vs naive triple loop                                          *)

let naive_matmul a b =
  let m = (Nd.shape a).(0) and k = (Nd.shape a).(1) and n = (Nd.shape b).(1) in
  Nd.init_f Dtype.F64 [| m; n |] (fun idx ->
      let i = idx / n and j = idx mod n in
      let acc = ref 0. in
      for l = 0 to k - 1 do
        acc := !acc +. (Nd.to_float a ((i * k) + l) *. Nd.to_float b ((l * n) + j))
      done;
      !acc)

let prop_matmul =
  QCheck.Test.make ~name:"matmul 2d = naive triple loop" ~count:200
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = rng_of seed in
      let m = 1 + Random.State.int rng 5
      and k = 1 + Random.State.int rng 5
      and n = 1 + Random.State.int rng 5 in
      let a = random_tensor rng [ m; k ] and b = random_tensor rng [ k; n ] in
      tensors_close (L.matmul a b) (naive_matmul a b))

(* ------------------------------------------------------------------ *)
(* Conv2d vs naive direct convolution                                   *)

let naive_conv x w ~stride ~padding =
  let sx = Nd.shape x and sw = Nd.shape w in
  let n = sx.(0) and c = sx.(1) and h = sx.(2) and wd = sx.(3) in
  let f = sw.(0) and kh = sw.(2) and kw = sw.(3) in
  let oh = ((h + (2 * padding) - kh) / stride) + 1
  and ow = ((wd + (2 * padding) - kw) / stride) + 1 in
  Nd.init_f Dtype.F64 [| n; f; oh; ow |] (fun li ->
      let owi = li mod ow in
      let ohi = li / ow mod oh in
      let fi = li / (ow * oh) mod f in
      let ni = li / (ow * oh * f) in
      let acc = ref 0. in
      for ci = 0 to c - 1 do
        for ki = 0 to kh - 1 do
          for kj = 0 to kw - 1 do
            let hi = (ohi * stride) - padding + ki
            and wi = (owi * stride) - padding + kj in
            if hi >= 0 && hi < h && wi >= 0 && wi < wd then
              acc :=
                !acc
                +. Nd.to_float x ((((ni * c) + ci) * h + hi) * wd + wi)
                   *. Nd.to_float w ((((fi * c) + ci) * kh + ki) * kw + kj)
          done
        done
      done;
      !acc)

let prop_conv2d =
  QCheck.Test.make ~name:"conv2d = naive direct convolution" ~count:100
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = rng_of seed in
      let c = 1 + Random.State.int rng 2
      and f = 1 + Random.State.int rng 2
      and h = 3 + Random.State.int rng 3
      and k = 1 + Random.State.int rng 2 in
      let stride = 1 + Random.State.int rng 2
      and padding = Random.State.int rng 2 in
      QCheck.assume (k <= h + (2 * padding));
      let x = random_tensor rng [ 1; c; h; h ]
      and w = random_tensor rng [ f; c; k; k ] in
      tensors_close
        (L.conv2d ~stride:(stride, stride) ~padding:(padding, padding) x w)
        (naive_conv x w ~stride ~padding))

(* ------------------------------------------------------------------ *)
(* Reductions vs naive folds                                            *)

let prop_reduce_sum =
  QCheck.Test.make ~name:"reduce sum over all axes = naive fold" ~count:200
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = rng_of seed in
      let rank = 1 + Random.State.int rng 3 in
      let dims = List.init rank (fun _ -> 1 + Random.State.int rng 4) in
      let t = random_tensor rng dims in
      let total = ref 0. in
      for i = 0 to Nd.numel t - 1 do
        total := !total +. Nd.to_float t i
      done;
      close (Nd.to_float (R.sum ~axes:[] t) 0) !total)

let prop_reduce_axis_consistent =
  QCheck.Test.make ~name:"reducing axes sequentially = reducing jointly"
    ~count:200
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = rng_of seed in
      let dims = List.init 3 (fun _ -> 1 + Random.State.int rng 4) in
      let t = random_tensor rng dims in
      let joint = R.sum ~axes:[ 0; 2 ] t in
      (* reduce axis 2 first, then axis 0 of the result *)
      let two_step = R.sum ~axes:[ 0 ] (R.sum ~axes:[ 2 ] t) in
      tensors_close joint two_step)

(* ------------------------------------------------------------------ *)
(* Slice/pad inverses                                                   *)

let prop_pad_then_crop =
  QCheck.Test.make ~name:"constant pad then slice recovers the tensor"
    ~count:200
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = rng_of seed in
      let rank = 1 + Random.State.int rng 3 in
      let dims = List.init rank (fun _ -> 1 + Random.State.int rng 4) in
      let t = random_tensor rng dims in
      let before = Array.init rank (fun _ -> Random.State.int rng 3) in
      let after = Array.init rank (fun _ -> Random.State.int rng 3) in
      let padded = T.pad t ~before ~after ~mode:(T.Constant 7.) in
      let starts = before in
      let stops =
        Array.init rank (fun i -> before.(i) + (Array.of_list dims).(i))
      in
      let cropped =
        T.slice padded ~starts ~stops ~steps:(Array.make rank 1)
      in
      Nd.equal cropped t)

let prop_concat_then_slice =
  QCheck.Test.make ~name:"concat then slice recovers each part" ~count:200
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = rng_of seed in
      let d = 1 + Random.State.int rng 4 and e = 1 + Random.State.int rng 4 in
      let cols = 1 + Random.State.int rng 3 in
      let a = random_tensor rng [ d; cols ] and b = random_tensor rng [ e; cols ] in
      let cat = T.concat ~axis:0 [ a; b ] in
      let back_a =
        T.slice cat ~starts:[| 0; 0 |] ~stops:[| d; cols |] ~steps:[| 1; 1 |]
      and back_b =
        T.slice cat ~starts:[| d; 0 |] ~stops:[| d + e; cols |] ~steps:[| 1; 1 |]
      in
      Nd.equal back_a a && Nd.equal back_b b)

(* ------------------------------------------------------------------ *)
(* Whole-pipeline properties over generated models                      *)

let prop_runtime_types_match_declared =
  (* every node's computed tensor matches its declared type: eval and infer
     agree end-to-end on arbitrary generated models *)
  QCheck.Test.make ~name:"runtime value types = declared types" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      match Gen_.generate { Config.default with seed; max_nodes = 8 } with
      | exception Gen_.Gen_failure _ -> true
      | g -> (
          let rng = rng_of seed in
          let binding = Runner.random_binding rng g in
          match Runner.run g binding with
          | exception _ -> false
          | values ->
              List.for_all
                (fun (n : Graph.node) ->
                  let v = List.assoc n.Graph.id values in
                  Conc.equal (Conc.of_tensor v) n.out_type)
                (Graph.nodes g)))

let prop_compilers_agree_with_reference =
  QCheck.Test.make ~name:"OxRT and Lotus match the oracle on clean models"
    ~count:25
    QCheck.(int_range 0 100000)
    (fun seed ->
      Nnsmith_faults.Faults.deactivate_all ();
      match Gen_.generate { Config.default with seed; max_nodes = 8 } with
      | exception Gen_.Gen_failure _ -> true
      | g -> (
          let rng = rng_of seed in
          let binding = Nnsmith_difftest.Inputs.find_binding rng g in
          let ok sys =
            match Nnsmith_difftest.Harness.test sys g binding with
            | Nnsmith_difftest.Harness.Pass
            | Nnsmith_difftest.Harness.Skipped _ ->
                true
            | _ -> false
          in
          ok Nnsmith_difftest.Systems.oxrt && ok Nnsmith_difftest.Systems.lotus))

let prop_serial_roundtrip_generated =
  QCheck.Test.make ~name:"serialization round-trips generated models"
    ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      match Gen_.generate { Config.default with seed; max_nodes = 8 } with
      | exception Gen_.Gen_failure _ -> true
      | g ->
          let text = Nnsmith_ir.Serial.to_string g in
          Nnsmith_ir.Serial.to_string (Nnsmith_ir.Serial.of_string text) = text)

(* ------------------------------------------------------------------ *)
(* Serialization: every operator kind round-trips through Serial, and
   bindings round-trip bit-for-bit through Tser                         *)

let all_unaries =
  Op.
    [
      Abs; Neg; Exp; Log; Log2; Sqrt; Sin; Cos; Tan; Asin; Acos; Atan; Tanh;
      Sigmoid; Relu; Gelu; Floor; Ceil; Round; Sign; Reciprocal; Erf;
      Softplus; Softsign; Elu; Selu; Hardswish; Hardsigmoid;
    ]

(* One representative per constructor (several for parameterised ones);
   Serial only needs structurally well-formed graphs, not typeable ones. *)
let every_op : int Op.t list =
  List.map (fun u -> Op.Unary u) all_unaries
  @ List.map (fun b -> Op.Binary b) Op.[ Add; Sub; Mul; Div; Pow; Max2; Min2; Mod2 ]
  @ List.map (fun c -> Op.Compare c) Op.[ Equal; Greater; Less ]
  @ List.map (fun l -> Op.Logical l) Op.[ L_and; L_or; L_xor ]
  @ [ Op.Not; Op.Clip { c_lo = -1.5; c_hi = 2.25 }; Op.Leaky_relu { alpha = 0.01 } ]
  @ List.map (fun d -> Op.Cast d) Dtype.all
  @ [ Op.Softmax { sm_axis = 1 }; Op.Arg_max { am_axis = 0 }; Op.Arg_min { am_axis = 1 } ]
  @ List.map
      (fun r -> Op.Reduce (r, { Op.r_axes = [ 0 ]; r_keepdims = true }))
      Op.[ R_sum; R_mean; R_max; R_min; R_prod ]
  @ [
      Op.Reduce (Op.R_sum, { Op.r_axes = [ 0; 1 ]; r_keepdims = false });
      Op.Mat_mul;
      Op.Conv2d { out_channels = 4; kh = 3; kw = 3; stride = 2; padding = 1 };
      Op.Pool2d (Op.P_max, { p_kh = 2; p_kw = 2; p_stride = 1; p_padding = 0 });
      Op.Pool2d (Op.P_avg, { p_kh = 3; p_kw = 2; p_stride = 2; p_padding = 1 });
      Op.Reshape [ 4; 1 ];
      Op.Flatten { f_axis = 1 };
      Op.Transpose [| 1; 0 |];
      Op.Squeeze { sq_axis = 0 };
      Op.Unsqueeze { usq_axis = 2 };
      Op.Slice { s_axis = 0; s_start = 0; s_stop = 2 };
      Op.Pad (Op.Pad_constant 0.5, { pad_before = [ 1; 0 ]; pad_after = [ 0; 2 ] });
      Op.Pad (Op.Pad_reflect, { pad_before = [ 1; 1 ]; pad_after = [ 1; 1 ] });
      Op.Pad (Op.Pad_replicate, { pad_before = [ 0; 1 ]; pad_after = [ 1; 0 ] });
      Op.Concat { cat_axis = 0; cat_n = 2 };
      Op.Where;
      Op.Expand [ 2; 2 ];
      Op.Gather { g_axis = 0 };
      Op.Tile [ 1; 2 ];
      Op.Leaf Op.Model_input;
      Op.Leaf Op.Model_weight;
      Op.Leaf (Op.Const_fill 3.5);
    ]

let graph_of_op (op : int Op.t) =
  let ty = Conc.make Dtype.F32 [ 2; 2 ] in
  let arity = Op.arity op in
  let leaves =
    List.init arity (fun i ->
        { Graph.id = i; op = Op.Leaf Op.Model_input; inputs = []; out_type = ty })
  in
  let node =
    { Graph.id = arity; op; inputs = List.init arity (fun i -> i); out_type = ty }
  in
  Graph.of_nodes (leaves @ [ node ])

let test_serial_every_op () =
  Alcotest.(check bool) "covers the whole vocabulary" true (List.length every_op > 60);
  List.iter
    (fun op ->
      let text = Nnsmith_ir.Serial.to_string (graph_of_op op) in
      let back = Nnsmith_ir.Serial.to_string (Nnsmith_ir.Serial.of_string text) in
      if back <> text then
        Alcotest.failf "Serial round-trip broke for %s:\n%s\n-- became --\n%s"
          (Op.name op) text back)
    every_op

module Tser = Nnsmith_tensor.Tser

let prop_binding_roundtrip =
  QCheck.Test.make ~name:"binding text round-trips bit-for-bit (all dtypes)"
    ~count:200
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = rng_of seed in
      let specials = [| Float.nan; infinity; neg_infinity; -0.0; 0.0 |] in
      let rand_float () =
        if Random.State.int rng 4 = 0 then
          specials.(Random.State.int rng (Array.length specials))
        else Random.State.float rng 2e6 -. 1e6
      in
      let tensor dtype =
        let shape =
          Array.init (1 + Random.State.int rng 3) (fun _ ->
              1 + Random.State.int rng 3)
        in
        match dtype with
        | Dtype.F32 | Dtype.F64 -> Nd.init_f dtype shape (fun _ -> rand_float ())
        | Dtype.I32 | Dtype.I64 ->
            Nd.init_i dtype shape (fun _ ->
                Random.State.int rng 10_000_000 - 5_000_000)
        | Dtype.Bool -> Nd.init_b shape (fun _ -> Random.State.bool rng)
      in
      let binding = List.mapi (fun i d -> (i * 3, tensor d)) Dtype.all in
      let back = Tser.parse_binding (Tser.encode_binding binding) in
      List.length back = List.length binding
      && List.for_all2
           (fun (i, a) (j, b) -> i = j && Nd.equal a b)
           binding back)

let prop_binning_ranges_respected =
  (* Algorithm 2: solved attribute values obey the accepted bin constraints,
     observable as every Conv2d kernel within the last bin's floor *)
  QCheck.Test.make ~name:"solved attrs satisfy their constraints" ~count:30
    QCheck.(int_range 0 100000)
    (fun seed ->
      match Gen_.generate { Config.default with seed; max_nodes = 10 } with
      | exception Gen_.Gen_failure _ -> true
      | g ->
          List.for_all
            (fun (n : Graph.node) ->
              match n.Graph.op with
              | Op.Conv2d { kh; kw; stride; padding; _ } ->
                  kh >= 1 && kw >= 1 && stride >= 1 && padding >= 0
                  && padding < kh && padding < kw
              | Op.Slice { s_start; s_stop; _ } -> 0 <= s_start && s_start < s_stop
              | _ -> true)
            (Graph.nodes g))

(* The compiled plan must be bit-transparent to the gradient search: after
   a random binding and after each round of random leaf updates applied the
   way the search applies them ([set_leaf] + [invalidate] over the changed
   ids), the plan's dirty-set forward stops at the same first bad node as
   the [Eval] interpreter run from scratch, with the same inputs, and holds
   the same bits for every node the interpreter computed.  The oracle shares
   the plan: after each round, [run_reference] over the plan's own leaf
   tensors (reusing what the forward left valid) and over fresh copies of
   them (every leaf rebound) equals [Runner.run] — the same output bits and
   NaN/Inf flag, or both raise — and the next round's forward still agrees.
   Wide leaf ranges make bad forwards common. *)
let prop_plan_search_bit_identical =
  QCheck.Test.make ~name:"exec plan transparent to gradient search" ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
      match Gen_.generate { Config.default with seed; max_nodes = 10 } with
      | exception Gen_.Gen_failure _ -> true
      | g ->
          let module Plan = Nnsmith_exec.Plan in
          let module Search = Nnsmith_grad.Search in
          let rng = rng_of (seed + 7) in
          let plan = Plan.for_graph g in
          let leaves = Graph.leaves g in
          let draw (n : Graph.node) =
            let lo, hi = if Random.State.bool rng then (1., 9.) else (-9., 9.) in
            match n.Graph.op with
            | Op.Leaf kind -> Runner.tensor_of_leaf rng kind n.out_type ~lo ~hi
            | _ -> assert false
          in
          let agree () =
            let binding =
              List.map
                (fun (n : Graph.node) ->
                  (n.Graph.id, Plan.leaf_value plan n.Graph.id))
                leaves
            in
            let same_bad (pn, pins) (en, eins) =
              pn.Graph.id = en.Graph.id
              && List.length pins = List.length eins
              && List.for_all2 Nd.equal pins eins
            in
            let attempt f = match f () with r -> Ok r | exception e -> Error e in
            let reference_agrees binding =
              match
                ( attempt (fun () -> Plan.run_reference plan binding),
                  attempt (fun () -> Runner.run g binding) )
              with
              | Error _, Error _ -> true
              | Ok (outs, bad), Ok all ->
                  bad = List.exists (fun (_, v) -> Nd.has_bad v) all
                  && List.for_all
                       (fun (id, v) -> Nd.equal v (List.assoc id all))
                       outs
              | _ -> false
            in
            (match
               ( attempt (fun () -> Plan.forward_until_bad plan),
                 attempt (fun () -> Search.forward_until_bad g binding) )
             with
            | Error _, Error _ -> true
            | Ok (pbad, _), Ok (values, ebad) ->
                (match (pbad, ebad) with
                | None, None -> true
                | Some p, Some e -> same_bad p e
                | _ -> false)
                && Hashtbl.fold
                     (fun id v ok -> ok && Nd.equal (Plan.leaf_value plan id) v)
                     values true
            | _ -> false)
            && reference_agrees binding
            && reference_agrees
                 (List.map (fun (id, v) -> (id, Nd.copy v)) binding)
          in
          List.iter (fun n -> Plan.set_leaf plan n.Graph.id (draw n)) leaves;
          Plan.invalidate_all plan;
          let rec rounds k =
            k = 0
            || begin
                 let changed =
                   List.filter (fun _ -> Random.State.bool rng) leaves
                 in
                 List.iter
                   (fun n -> Plan.set_leaf plan n.Graph.id (draw n))
                   changed;
                 Plan.invalidate plan
                   (List.map (fun (n : Graph.node) -> n.Graph.id) changed);
                 agree () && rounds (k - 1)
               end
          in
          agree () && rounds 8)

(* The cohort plan pool and the sharded schedule must be invisible to
   campaign outcomes: a fixed-seed campaign writes bit-identical failure
   keys, coverage sites and corpus index bytes at one worker or two, where
   each worker's pool sees a different sequence of graphs.  At two workers
   the outcomes reach the ledger out of index order, so this also checks
   that its reordering restores the inline run's corpus bytes. *)
let rec remove_path path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Sys.readdir path
      |> Array.iter (fun f -> remove_path (Filename.concat path f));
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let with_tmp_dir k =
  let dir = Filename.temp_file "nnsmith_props_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove_path dir) (fun () -> k dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_cohort_jobs_transparent_campaign () =
  let check = Alcotest.(check bool) in
  let module D = Nnsmith_difftest in
  let module Plan = Nnsmith_exec.Plan in
  let module Cov = Nnsmith_coverage.Coverage in
  Nnsmith_faults.Faults.activate_all ();
  Fun.protect
    ~finally:(fun () ->
      Nnsmith_faults.Faults.deactivate_all ();
      Plan.cohort_clear ())
    (fun () ->
      let run ~jobs =
        with_tmp_dir @@ fun dir ->
        Plan.cohort_clear ();
        let r =
          D.Pfuzz.fuzz ~jobs ~report_dir:dir ~systems:[ D.Systems.lotus ]
            ~root_seed:20230325 ~budget:(Nnsmith_parallel.Pool.Tests 16) ()
        in
        ( r.r_failure_keys,
          List.sort compare (Cov.to_list r.r_coverage),
          read_file (Filename.concat dir "index.jsonl") )
      in
      let ref_keys, ref_cov, ref_index = run ~jobs:1 in
      check "reference campaign found failures" true (ref_keys <> []);
      let keys, cov, index = run ~jobs:2 in
      check "jobs=2: failure keys" true (keys = ref_keys);
      check "jobs=2: coverage sites" true (cov = ref_cov);
      check "jobs=2: corpus index bytes" true (String.equal index ref_index))

(* Soundness of the interval pre-screen: [prescreen_unsat] claims the full
   solve is forced to reject the probe, so finding a model for
   prefix + probe refutes any definitely-UNSAT answer.  The same scenario
   also cross-checks transparency: [try_add_constraints] must return the
   same verdict with screening on or off. *)
let prop_prescreen_sound =
  QCheck.Test.make
    ~name:"interval screen never refutes a satisfiable probe" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let module S = Nnsmith_smt.Solver in
      let module E = Nnsmith_smt.Expr in
      let module F = Nnsmith_smt.Formula in
      let rng = rng_of seed in
      let nv = 2 + Random.State.int rng 4 in
      let vars =
        Array.init nv (fun i ->
            let lo = 1 + Random.State.int rng 4 in
            E.fresh ~lo ~hi:(lo + Random.State.int rng 12)
              (Printf.sprintf "ps%d" i))
      in
      let rec expr depth =
        if depth = 0 || Random.State.int rng 2 = 0 then
          if Random.State.bool rng then vars.(Random.State.int rng nv)
          else E.int (1 + Random.State.int rng 10)
        else
          let a = expr (depth - 1) and b = expr (depth - 1) in
          match Random.State.int rng 5 with
          | 0 -> E.(a + b)
          | 1 -> E.(a - b)
          | 2 -> E.(a * b)
          | 3 -> E.min_ a b
          | _ -> E.max_ a b
      in
      let atom () =
        let a = expr 2 and b = expr 2 in
        match Random.State.int rng 4 with
        | 0 -> F.(a = b)
        | 1 -> F.(a <= b)
        | 2 -> F.(a < b)
        | _ -> F.(a >= b)
      in
      let rec formula depth =
        if depth = 0 || Random.State.int rng 2 = 0 then atom ()
        else
          match Random.State.int rng 3 with
          | 0 -> F.conj (formula (depth - 1)) (formula (depth - 1))
          | 1 -> F.disj (formula (depth - 1)) (formula (depth - 1))
          | _ -> F.not_ (formula (depth - 1))
      in
      let prefix = List.init (Random.State.int rng 4) (fun _ -> formula 2) in
      let probe =
        List.init (1 + Random.State.int rng 2) (fun _ -> formula 2)
      in
      let was = S.prescreen_enabled () in
      Fun.protect
        ~finally:(fun () -> S.set_prescreen_enabled was)
        (fun () ->
          S.set_prescreen_enabled true;
          let s = S.create () in
          S.assert_all s prefix;
          let screened_unsat = S.prescreen_unsat s probe in
          let model = S.solve ~max_steps:20_000 (prefix @ probe) in
          (not (screened_unsat && model <> None))
          &&
          let verdict on =
            S.set_prescreen_enabled on;
            let s = S.create () in
            S.assert_all s prefix;
            S.try_add_constraints s probe
          in
          verdict true = verdict false))

(* The pre-screen must be invisible to complete campaign outcomes: a
   fixed-seed campaign writes bit-identical failure keys, coverage sites
   and corpus index bytes with the screen on or off, at one worker or
   two.  Deeper 20-node generation, where each test makes the most
   candidate probes, must give the same graphs either way too. *)
let test_prescreen_transparent_campaign () =
  let check = Alcotest.(check bool) in
  let module D = Nnsmith_difftest in
  let module S = Nnsmith_smt.Solver in
  let module Cov = Nnsmith_coverage.Coverage in
  let was = S.prescreen_enabled () in
  Nnsmith_faults.Faults.activate_all ();
  Fun.protect
    ~finally:(fun () ->
      Nnsmith_faults.Faults.deactivate_all ();
      S.set_prescreen_enabled was)
    (fun () ->
      let run ~screen ~jobs =
        with_tmp_dir @@ fun dir ->
        S.set_prescreen_enabled screen;
        let r =
          D.Pfuzz.fuzz ~jobs ~report_dir:dir ~systems:[ D.Systems.lotus ]
            ~root_seed:20230325 ~budget:(Nnsmith_parallel.Pool.Tests 16) ()
        in
        ( r.r_failure_keys,
          List.sort compare (Cov.to_list r.r_coverage),
          read_file (Filename.concat dir "index.jsonl") )
      in
      let ref_keys, ref_cov, ref_index = run ~screen:false ~jobs:1 in
      check "reference campaign found failures" true (ref_keys <> []);
      List.iter
        (fun (screen, jobs) ->
          let keys, cov, index = run ~screen ~jobs in
          let tag fmt =
            Printf.sprintf ("screen=%b jobs=%d: " ^^ fmt) screen jobs
          in
          check (tag "failure keys") true (keys = ref_keys);
          check (tag "coverage sites") true (cov = ref_cov);
          check (tag "corpus index bytes") true (String.equal index ref_index))
        [ (true, 1); (true, 2); (false, 2) ];
      let graphs screen =
        S.set_prescreen_enabled screen;
        List.init 40 (fun index ->
            let seed =
              Nnsmith_parallel.Splitmix.derive ~root:20230325 ~index
            in
            match
              Gen_.generate { Config.default with seed; max_nodes = 20 }
            with
            | g -> Some (Graph.to_string g)
            | exception Gen_.Gen_failure _ -> None)
      in
      let screened = graphs true in
      check "20-node generation succeeds" true
        (List.exists Option.is_some screened);
      List.iteri
        (fun i (on, off) ->
          check (Printf.sprintf "20-node graph %d: screen on = off" i) true
            (on = off))
        (List.combine screened (graphs false)))

let () =
  Alcotest.run "props"
    [
      ( "kernels",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_broadcast_add;
            prop_matmul;
            prop_conv2d;
            prop_reduce_sum;
            prop_reduce_axis_consistent;
            prop_pad_then_crop;
            prop_concat_then_slice;
          ] );
      ( "pipeline",
        Alcotest.test_case "batch/cohort transparent to campaigns" `Quick
             test_cohort_jobs_transparent_campaign
        :: Alcotest.test_case "pre-screen transparent to campaigns" `Quick
             test_prescreen_transparent_campaign
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_prescreen_sound;
               prop_plan_search_bit_identical;
               prop_runtime_types_match_declared;
               prop_compilers_agree_with_reference;
               prop_serial_roundtrip_generated;
               prop_binning_ranges_respected;
             ] );
      ( "serialization",
        Alcotest.test_case "serial round-trips every op kind" `Quick
          test_serial_every_op
        :: List.map QCheck_alcotest.to_alcotest [ prop_binding_roundtrip ] );
    ]
