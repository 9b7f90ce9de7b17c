(** Unique operator-instance accounting for the binning ablation (Figure 9):
    instances are distinguished by operator, attributes and input types,
    as the paper does with Relay's type system. *)

module Op = Nnsmith_ir.Op
module Conc = Nnsmith_ir.Ttype.Conc
module Graph = Nnsmith_ir.Graph
module Dtype = Nnsmith_tensor.Dtype
module Tel = Nnsmith_telemetry.Telemetry

type t = {
  seen : (string, unit) Hashtbl.t;
  (* Concrete type -> rendered string.  Campaigns see the same few dozen
     concrete input types thousands of times; rendering each once makes
     key construction allocation-light. *)
  ty_memo : (Conc.t, string) Hashtbl.t;
  abs_seen : (string, unit) Hashtbl.t;
  (* Abstract instance accounting: operator name plus the (dtype, rank)
     signature of its inputs — the key space of the compiled templates'
     memoized type matching.  Tracking how few abstract signatures a
     campaign's instances collapse into explains the memo's hit rate. *)
}

let create () : t =
  {
    seen = Hashtbl.create 256;
    ty_memo = Hashtbl.create 64;
    abs_seen = Hashtbl.create 64;
  }

let type_string t (c : Conc.t) =
  match Hashtbl.find_opt t.ty_memo c with
  | Some s -> s
  | None ->
      let s = Conc.to_string c in
      Hashtbl.add t.ty_memo c s;
      s

let instance_key (g : Graph.t) (n : Graph.node) =
  let in_types =
    List.map
      (fun i -> Conc.to_string (Graph.find g i).Graph.out_type)
      n.Graph.inputs
  in
  Format.asprintf "%a(%s)" Op.pp_concrete n.Graph.op
    (String.concat "," in_types)

(* Same key as [instance_key], built through the type-string memo and a
   reused buffer instead of per-node Format plumbing. *)
let instance_key_memo t buf (g : Graph.t) (n : Graph.node) =
  Buffer.clear buf;
  Buffer.add_string buf (Format.asprintf "%a" Op.pp_concrete n.Graph.op);
  Buffer.add_char buf '(';
  List.iteri
    (fun i inp ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (type_string t (Graph.find g inp).Graph.out_type))
    n.Graph.inputs;
  Buffer.add_char buf ')';
  Buffer.contents buf

(* Abstract key: operator name + input (dtype, rank) pairs, dropping
   attributes and dimension magnitudes. *)
let abs_key buf (g : Graph.t) (n : Graph.node) =
  Buffer.clear buf;
  Buffer.add_string buf (Op.name n.Graph.op);
  Buffer.add_char buf '(';
  List.iteri
    (fun i inp ->
      if i > 0 then Buffer.add_char buf ',';
      let c = (Graph.find g inp).Graph.out_type in
      Buffer.add_string buf (Dtype.to_string (Conc.dtype c));
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int (Conc.rank c)))
    n.Graph.inputs;
  Buffer.add_char buf ')';
  Buffer.contents buf

(** Record all operator instances of a model; returns how many were new. *)
let add (t : t) (g : Graph.t) : int =
  let buf = Buffer.create 128 in
  List.fold_left
    (fun fresh (n : Graph.node) ->
      match n.Graph.op with
      | Op.Leaf _ -> fresh
      | _ ->
          let akey = abs_key buf g n in
          if not (Hashtbl.mem t.abs_seen akey) then begin
            Hashtbl.replace t.abs_seen akey ();
            Tel.incr "cov/abs_sigs"
          end;
          let key = instance_key_memo t buf g n in
          if Hashtbl.mem t.seen key then fresh
          else begin
            Hashtbl.replace t.seen key ();
            fresh + 1
          end)
    0 (Graph.nodes g)

let count (t : t) = Hashtbl.length t.seen
let abs_count (t : t) = Hashtbl.length t.abs_seen
