(** One differential test: reference vs compiled execution, with O0
    re-compilation for fault localisation (§4) and high error tolerance to
    suppress floating-point false alarms (§5.4). *)

module Nd = Nnsmith_tensor.Nd
module Graph = Nnsmith_ir.Graph
module Runner = Nnsmith_ops.Runner
module Plan = Nnsmith_exec.Plan
module Faults = Nnsmith_faults.Faults
module Tel = Nnsmith_telemetry.Telemetry

type verdict =
  | Pass
  | Crash of string  (** dedup key: the exception message *)
  | Semantic of { sem_kind : [ `Optimization | `Frontend ]; rel_err : float }
  | Skipped of string
      (** reference produced NaN/Inf, or no comparable outputs *)

(* High tolerance, per the false-alarm discussion in §5.4. *)
let rtol = 1e-2
let atol = 1e-3

let message_of_exn = function
  | Faults.Compiler_bug m -> m
  | Nnsmith_ops.Eval.Eval_error m -> "[runtime-eval] " ^ m
  | Invalid_argument m -> "[runtime-invalid] " ^ m
  | e -> "[exn] " ^ Printexc.to_string e

let outputs_match reference got =
  List.length reference = List.length got
  && List.for_all2
       (fun (_, a) (_, b) -> Nd.approx_equal ~rtol ~atol a b)
       reference got

let worst_rel_err reference got =
  if List.length reference <> List.length got then infinity
  else
    List.fold_left2
      (fun acc (_, a) (_, b) -> Float.max acc (Nd.max_rel_error a b))
      0. reference got

(* Reference outputs plus the §2.3 any-NaN/Inf flag, from the graph's one
   execution plan.  That is the plan the input search ran, so the binding
   it returned is already computed there, and each system, isolation re-run
   and reduction probe recomputes only what its binding changed.  The
   result is bit-identical to interpreting the graph with [Runner.run] and
   raises the same exceptions; the outputs are views into the plan's
   slots, valid until the next run on that plan. *)
let reference_outputs (g : Graph.t) (binding : Runner.binding) :
    (int * Nd.t) list * bool =
  Plan.run_reference (Plan.for_graph g) binding

(** Differentially test [g] on [system] under [binding].  The reference
    semantics come from the *pre-export* model (the "PyTorch" results);
    [exported] is what the compiler actually receives. *)
let test ?(exported : Graph.t option) (system : Systems.t) (g : Graph.t)
    (binding : Runner.binding) : verdict =
  Tel.with_span "exec/test" @@ fun () ->
  let exported = Option.value exported ~default:g in
  match
    Tel.with_span "exec/reference" (fun () -> reference_outputs g binding)
  with
  | exception e -> Skipped ("reference failed: " ^ message_of_exn e)
  | _, true ->
      (* §2.3: exclude executions with internal NaN/Inf entirely *)
      Skipped "reference produced NaN/Inf"
  | reference, false -> begin
      match system.compile_and_run Systems.O2 exported binding with
      | exception e -> Crash (message_of_exn e)
      | optimized ->
          if
            Tel.with_span "exec/compare" (fun () ->
                outputs_match reference optimized)
          then Pass
          else begin
            (* localise: recompile without optimizations *)
            let rel_err = worst_rel_err reference optimized in
            match system.compile_and_run Systems.O0 exported binding with
            | exception e -> Crash (message_of_exn e)
            | o0 ->
                if
                  Tel.with_span "exec/compare" (fun () ->
                      outputs_match o0 optimized)
                then
                  (* O0 agrees with O2: the front end (or the export) is
                     wrong, not the optimizer *)
                  Semantic { sem_kind = `Frontend; rel_err }
                else Semantic { sem_kind = `Optimization; rel_err }
          end
    end

(** Crash-dedup key: digits (node ids, shapes) are masked so that the same
    defect reported against different nodes counts once, mirroring the
    paper's by-error-message dedup. *)
let dedup_key m = String.map (fun c -> if c >= '0' && c <= '9' then '#' else c) m

(** Extract the seeded-bug id from a crash message, if any ("[id] ..."). *)
let bug_id_of_message m =
  if String.length m > 2 && m.[0] = '[' then
    match String.index_opt m ']' with
    | Some close -> (
        let id = String.sub m 1 (close - 1) in
        match Faults.find id with Some _ -> Some id | None -> None)
    | None -> None
  else None
