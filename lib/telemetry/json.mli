(** Minimal JSON values, one-line emission and parsing — just enough for the
    telemetry JSONL schema, with no external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line emission.  Object keys are written in list order, so
    callers control key order (the telemetry schema sorts them). *)

val parse : string -> (t, string) result
(** Parse one complete JSON document; trailing garbage is an error. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] otherwise. *)

val to_float : t -> float option
val to_int : t -> int option
val to_str : t -> string option

(** {1 Field readers}

    Shared by the journal, corpus and fleet schemas.  A reader's [Error]
    names the field or element it could not decode. *)

module Syntax : sig
  val ( let* ) :
    ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
  (** [Result.bind], for chaining field reads. *)
end

val int_field : t -> string -> (int, string) result
val float_field : t -> string -> (float, string) result
val str_field : t -> string -> (string, string) result
val bool_field : t -> string -> (bool, string) result
(** [int_field j k] and friends: the member [k] of [j] with that type;
    [Error] when it is missing or of another type. *)

val strings_to_json : string list -> t

val strings_of_json : string -> t -> (string list, string) result
(** [strings_of_json k j]: the string array in field [k] of [j]; [[]] when
    the field is absent. *)

val counts_to_json : (string * int) list -> t
(** A count table as one object, in list order. *)

val counts_of_json : string -> t -> ((string * int) list, string) result
(** [counts_of_json k j]: the count table in field [k] of [j], in member
    order; [[]] when the field is absent. *)

val ops_to_json : (string * (string * int) list) list -> t
(** Per-operator count tables as one object of {!counts_to_json} objects. *)

val ops_of_json :
  string -> t -> ((string * (string * int) list) list, string) result
(** Inverse of {!ops_to_json} on field [k] of [j]; [[]] when absent. *)

val sites_to_json : (string * bool) list -> t
(** Coverage sites as one object: each site name maps to whether it lies in
    an optimizer-pass file. *)

val sites_of_json : string -> t -> ((string * bool) list, string) result
(** Inverse of {!sites_to_json} on field [k] of [j]; [[]] when absent. *)
