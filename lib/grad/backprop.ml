(** The input search's reverse pass, compiled over its execution plan.

    The program is a per-slot array mirroring the plan: each node keeps a
    preallocated F64 cotangent buffer and a VJP closure compiled, at its
    first use, for the dtypes and shapes of the plan's current values.  A
    backward pass walks the slots in reverse topological order, reads every
    forward value straight from its plan slot and runs the VJPs of the nodes
    that hold a cotangent.

    Accumulation follows the tensor-level rule exactly: the first gradient
    to reach a node becomes its cotangent as computed, and each later one
    is added as [prev +. g], in reverse topological order and then input
    order.  A later gradient is therefore computed into a per-input scratch
    buffer before it is added, never accumulated into the cotangent in
    place. *)

module Nd = Nnsmith_tensor.Nd
module Dtype = Nnsmith_tensor.Dtype
module Shape = Nnsmith_tensor.Shape
module Graph = Nnsmith_ir.Graph
module Op = Nnsmith_ir.Op
module Plan = Nnsmith_exec.Plan
module Tel = Nnsmith_telemetry.Telemetry

type farray = Nd.farray

type node = {
  op : int Op.t;
  id : int;
  is_leaf : bool;
  trainable : bool;  (** a model input or weight; constant fills are frozen *)
  inputs : int array;  (** input slots *)
  ins : Nd.t array;  (** the inputs' forward values, refreshed per run *)
  dsts : farray array;  (** per input: where this run's gradient goes *)
  adds : bool array;  (** per input: is that a scratch to add afterwards? *)
  scratch : farray array;  (** per input, allocated at the first fan-in *)
  mutable vjp : Vjp.t option;
  mutable types : (Dtype.t * Shape.t) array;  (** inputs, then output *)
  mutable cot : farray;
  mutable grad : Nd.t;  (** [cot] viewed as an F64 tensor *)
}

type t = { plan : Plan.t; proxy : bool; nodes : node array; has : bool array }

let create_buf n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let create ~proxy plan =
  let n = Plan.slot_count plan in
  let nodes =
    Array.init n (fun i ->
        let node = Plan.slot_node plan i in
        let inputs = Plan.slot_inputs plan i in
        let k = Array.length inputs in
        {
          op = node.Graph.op;
          id = node.Graph.id;
          is_leaf = (match node.Graph.op with Op.Leaf _ -> true | _ -> false);
          trainable =
            (match node.Graph.op with
            | Op.Leaf (Op.Model_input | Op.Model_weight) -> true
            | _ -> false);
          inputs;
          ins = Array.make k (Plan.slot_value plan i);
          dsts = Array.make k Nd.empty_f;
          adds = Array.make k false;
          scratch = Array.make k Nd.empty_f;
          vjp = None;
          types = [||];
          cot = Nd.empty_f;
          grad = Plan.slot_value plan i;
        })
  in
  { plan; proxy; nodes; has = Array.make n false }

let same_type (d, s) (v : Nd.t) =
  Dtype.equal d v.Nd.dtype && (s == v.Nd.shape || Shape.equal s v.Nd.shape)

(* The node's VJP, recompiled whenever a value's dtype or shape differs from
   the ones it was compiled for (a plan node whose interpreter fallback
   disagrees with its declared type); [nd.ins] must be current. *)
let vjp_for t nd out =
  let k = Array.length nd.ins in
  let current =
    Array.length nd.types = k + 1
    && same_type nd.types.(k) out
    &&
    let ok = ref true in
    for j = 0 to k - 1 do
      if not (same_type nd.types.(j) nd.ins.(j)) then ok := false
    done;
    !ok
  in
  match nd.vjp with
  | Some v when current -> v
  | _ ->
      let ty (v : Nd.t) = (v.Nd.dtype, v.Nd.shape) in
      let ins = Array.map ty nd.ins in
      let v = Vjp.compile ~proxy:t.proxy nd.op ~ins ~out:(ty out) in
      nd.vjp <- Some v;
      nd.types <- Array.append ins [| ty out |];
      v

(* Slot [j]'s cotangent buffer, sized to its value's element count. *)
let cot_for t j =
  let nd = t.nodes.(j) in
  let v = Plan.slot_value t.plan j in
  if Bigarray.Array1.dim nd.cot <> Nd.numel v then begin
    let buf = create_buf (Nd.numel v) in
    nd.cot <- buf;
    nd.grad <- { Nd.dtype = Dtype.F64; shape = v.Nd.shape; data = Nd.F buf }
  end;
  nd.cot

let add_into (acc : farray) (g : farray) =
  for i = 0 to Bigarray.Array1.dim acc - 1 do
    Bigarray.Array1.unsafe_set acc i
      (Bigarray.Array1.unsafe_get acc i +. Bigarray.Array1.get g i)
  done

let run t ~seeds =
  let nodes = t.nodes and has = t.has in
  Array.fill has 0 (Array.length has) false;
  List.iter
    (fun (id, (g : Nd.t)) ->
      let j = Plan.slot_of t.plan id in
      let gd = Nd.float_data g in
      if has.(j) then add_into nodes.(j).cot gd
      else begin
        Bigarray.Array1.blit gd (cot_for t j);
        has.(j) <- true
      end)
    seeds;
  let ran = ref 0 in
  for i = Array.length nodes - 1 downto 0 do
    let nd = nodes.(i) in
    if has.(i) && not nd.is_leaf then begin
      incr ran;
      let out = Plan.slot_value t.plan i in
      for k = 0 to Array.length nd.inputs - 1 do
        nd.ins.(k) <- Plan.slot_value t.plan nd.inputs.(k)
      done;
      let v = vjp_for t nd out in
      for k = 0 to Array.length nd.inputs - 1 do
        if v.grads.(k) then begin
          let j = nd.inputs.(k) in
          if has.(j) then begin
            let numel = Bigarray.Array1.dim nodes.(j).cot in
            if Bigarray.Array1.dim nd.scratch.(k) <> numel then
              nd.scratch.(k) <- create_buf numel;
            nd.dsts.(k) <- nd.scratch.(k);
            nd.adds.(k) <- true
          end
          else begin
            nd.dsts.(k) <- cot_for t j;
            nd.adds.(k) <- false;
            has.(j) <- true
          end
        end
      done;
      v.run ~gout:nd.cot nd.ins out nd.dsts;
      for k = 0 to Array.length nd.inputs - 1 do
        if v.grads.(k) && nd.adds.(k) then
          add_into nodes.(nd.inputs.(k)).cot nd.dsts.(k)
      done
    end
  done;
  Tel.incr ~by:!ran "grad/backward_nodes";
  let grads = ref [] in
  for i = Array.length nodes - 1 downto 0 do
    let nd = nodes.(i) in
    if has.(i) && nd.trainable then grads := (nd.id, nd.grad) :: !grads
  done;
  !grads
