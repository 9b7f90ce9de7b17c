(** TZer-style baseline: coverage-guided joint mutation of Lotus's low-level
    TIR and its pass pipeline (the paper's Figure 8 comparison).  TZer never
    sees the graph level; its mutations reach low-level branches lowered
    models rarely produce. *)

type t = {
  rng : Random.State.t;
  mutable corpus : Nnsmith_tvmlike.Tir.func list;
  mutable covered : int;  (** coverage count when the corpus last grew *)
  mutable executed : int;
}

val create : ?seed:int -> unit -> t
(** Seeds the corpus by lowering a handful of simple operators. *)

val step : t -> unit
(** One fuzzing iteration: pick a parent, mutate the IR and the pass
    pipeline, optimise, execute, and keep the mutant when global coverage
    grew. *)

val mutate :
  Random.State.t -> Nnsmith_tvmlike.Tir.func -> Nnsmith_tvmlike.Tir.func
(** One random IR mutation of indices, loops or values, as {!step} applies
    it.  Exposed for tests: mutants exercise the TIR runner's error
    paths. *)
