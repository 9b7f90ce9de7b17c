(** Gradient-guided value search (Algorithm 3): find model inputs and weights
    under which no operator produces NaN/Inf. *)

module Nd = Nnsmith_tensor.Nd
module Dtype = Nnsmith_tensor.Dtype
module Graph = Nnsmith_ir.Graph
module Op = Nnsmith_ir.Op
module Conc = Nnsmith_ir.Ttype.Conc
module Runner = Nnsmith_ops.Runner
module Vulnerability = Nnsmith_ops.Vulnerability
module Plan = Nnsmith_exec.Plan
module Tel = Nnsmith_telemetry.Telemetry

type method_ =
  | Sampling  (** re-draw random values until valid (baseline) *)
  | Gradient_no_proxy  (** gradient search without proxy derivatives *)
  | Gradient  (** the full method of §3.3 *)

type outcome = {
  binding : Runner.binding option;  (** [Some] iff the search succeeded *)
  iterations : int;
  restarts : int;
  elapsed_ms : float;
}
(* The campaign's one input-search budget.  An iteration count, so what a
   search computes never depends on scheduler load; [budget_ms] adds an
   optional wall-clock deadline (the timeouts of Figure 11). *)
let default_max_iters = 64

(* One clock for campaigns, search and bench: Telemetry.now_ms. *)
let now_ms = Tel.now_ms

(* Forward pass recording every value, stopping at the first NaN/Inf.  This
   one-shot [Eval] pass (used by stats and the bench harness) keeps the
   assoc-list binding interface; the search loop below runs a compiled plan,
   which the tests check against this pass. *)
let forward_until_bad g binding =
  let values : (int, Nd.t) Hashtbl.t = Hashtbl.create 32 in
  let bad = ref None in
  (try
     List.iter
       (fun (n : Graph.node) ->
         let ins = List.map (Hashtbl.find values) n.inputs in
         let v =
           match n.Graph.op with
           | Op.Leaf _ -> List.assoc n.id binding
           | op -> Nnsmith_ops.Eval.eval op ins
         in
         Hashtbl.replace values n.id v;
         if Nd.has_bad v then begin
           bad := Some (n, ins);
           raise Exit
         end)
       (Graph.nodes g)
   with Exit -> ());
  (values, !bad)

(** Does any node produce NaN/Inf under this binding?  Used for the paper's
    "56.8% of 20-node models" statistic. *)
let binding_is_bad g binding =
  match forward_until_bad g binding with _, Some _ -> true | _, None -> false

let fresh_leaf rng g id ~lo ~hi =
  let n = Graph.find g id in
  match n.Graph.op with
  | Op.Leaf kind -> Runner.tensor_of_leaf rng kind n.out_type ~lo ~hi
  | _ -> assert false

let search ?budget_ms ?(max_iters = default_max_iters) ?(lr = 0.5) ?(lo = 1.)
    ?(hi = 9.) ~method_ rng (g : Graph.t) : outcome =
  Tel.with_span "grad/search" @@ fun () ->
  let adam = Adam.create ~lr () in
  (* The compiled plan runs every forward with dirty-set re-execution, and
     the fused in-place Adam step updates its leaves.  Moments are
     preallocated once per plan. *)
  let plan = Plan.for_graph g in
  let leaves = Array.of_list (Graph.leaves g) in
  Adam.preallocate adam
    (Array.to_list leaves
    |> List.filter_map (fun (n : Graph.node) ->
           if Dtype.is_float (Conc.dtype n.Graph.out_type) then
             Some (n.Graph.id, Conc.shape n.Graph.out_type)
           else None));
  (* Search-private leaf tensors, allocated once and refilled in place on
     every restart ([refill_leaf_into] consumes the rng stream exactly as
     [tensor_of_leaf] would, so draws — and everything downstream — are
     unchanged).  Mutating them is safe: nothing outside this search holds
     a reference until [result] hands the binding out, after which the
     search is over and no further refill can occur; a replayed graph gets
     a fresh search with fresh tensors even when the cohort pool returns
     the same plan. *)
  let slots =
    Array.map
      (fun (n : Graph.node) ->
        Nd.create (Conc.dtype n.Graph.out_type) (Conc.shape n.Graph.out_type))
      leaves
  in
  (* draw fresh values for every leaf, in [Graph.leaves] order (same rng
     stream as [Runner.random_binding]) *)
  let fill_random () =
    Array.iteri
      (fun i (n : Graph.node) ->
        match n.Graph.op with
        | Op.Leaf kind ->
            Runner.refill_leaf_into rng kind n.out_type ~lo ~hi slots.(i);
            Plan.set_leaf plan n.Graph.id slots.(i)
        | _ -> assert false)
      leaves;
    Plan.invalidate_all plan
  in
  (* forward pass: the first bad node (with its inputs), if any *)
  let forward () =
    let bad, computed = Plan.forward_until_bad plan in
    Tel.incr ~by:computed "grad/forward_nodes";
    bad
  in
  (* one Adam step over the leaf gradients; true iff any leaf value
     changed *)
  let update leaf_grads =
    let changed = ref false in
    let dirty = ref [] in
    List.iter
      (fun (id, grad) ->
        let param = Plan.leaf_value plan id in
        if Dtype.is_float (Nd.dtype param) then begin
          match Adam.update_into adam ~id ~param ~grad with
          | `Changed ->
              changed := true;
              dirty := id :: !dirty
          | `Unchanged -> ()
          | `Bad ->
              let fresh = fresh_leaf rng g id ~lo ~hi in
              if not (Nd.equal fresh param) then changed := true;
              Plan.set_leaf plan id fresh;
              dirty := id :: !dirty
        end)
      leaf_grads;
    Plan.invalidate plan !dirty;
    !changed
  in
  let result () =
    Array.to_list leaves
    |> List.map (fun (n : Graph.node) ->
           (n.Graph.id, Plan.leaf_value plan n.Graph.id))
  in
  (* The reverse program is built at the search's first backward pass, so a
     search that never runs one pays nothing for it. *)
  let reverse = lazy (Backprop.create ~proxy:(method_ = Gradient) plan) in
  let start = now_ms () in
  let iterations = ref 0 and restarts = ref 0 in
  let last_target = ref None in
  let restart () =
    incr restarts;
    Tel.incr "grad/restarts";
    Adam.reset adam;
    last_target := None;
    fill_random ()
  in
  let finish binding =
    {
      binding;
      iterations = !iterations;
      restarts = !restarts;
      elapsed_ms = now_ms () -. start;
    }
  in
  let rec loop () =
    incr iterations;
    Tel.incr "grad/iterations";
    (* a deadline is only checked every 16 iterations — reading the clock
       dominated short searches; [max_iters] remains exact *)
    if
      !iterations > max_iters
      ||
      match budget_ms with
      | Some b -> !iterations land 15 = 0 && now_ms () -. start > b
      | None -> false
    then begin
      Tel.incr "grad/timeouts";
      finish None
    end
    else begin
      let bad = forward () in
      (match bad with Some _ -> Tel.incr "grad/bad_forward" | None -> ());
      match bad with
      | None -> finish (Some (result ()))
      | Some (node, ins) -> (
          match method_ with
          | Sampling ->
              restart ();
              loop ()
          | Gradient | Gradient_no_proxy -> (
              match Vulnerability.of_op node.op with
              | None ->
                  restart ();
                  loop ()
              | Some entry -> (
                  (* reset the learning-rate schedule on target switch *)
                  if !last_target <> Some node.id then begin
                    Adam.reset adam;
                    last_target := Some node.id
                  end;
                  (* first positive loss (its predicate is the violated one) *)
                  match
                    List.find_opt
                      (fun (l : Vulnerability.loss) -> l.value ins > 0.)
                      entry.losses
                  with
                  | None ->
                      restart ();
                      loop ()
                  | Some loss -> (
                      let input_grads = loss.grad ins in
                      let seeds =
                        List.concat
                          (List.map2
                             (fun producer grad ->
                               match grad with
                               | Some gr -> [ (producer, gr) ]
                               | None -> [])
                             node.inputs input_grads)
                      in
                      match Backprop.run (Lazy.force reverse) ~seeds with
                      | [] ->
                          restart ();
                          loop ()
                      | leaf_grads ->
                          let changed = update leaf_grads in
                          Adam.tick adam;
                          if changed then loop ()
                          else begin
                            restart ();
                            loop ()
                          end))))
    end
  in
  fill_random ();
  loop ()
