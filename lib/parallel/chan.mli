(** Multi-producer single-consumer channel: worker domains [send] their
    messages, the one consuming domain [recv]s them.  The stream ends once
    every producer has called {!producer_done} and the queue is drained. *)

type 'a t

val create : producers:int -> unit -> 'a t
(** A channel expecting exactly [producers] {!producer_done} calls. *)

val send : 'a t -> 'a -> unit
(** Enqueue; never blocks (unbounded), so nothing sent is ever lost. *)

val producer_done : 'a t -> unit
(** Retire one producer handle.  Raises [Invalid_argument] when called more
    than [producers] times. *)

val recv : 'a t -> 'a option
(** Block until an item is available ([Some]) or every producer has
    retired and the queue is empty ([None]). *)
