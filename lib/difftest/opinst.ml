(** Unique operator-instance accounting for the binning ablation (Figure 9):
    instances are distinguished by operator, attributes and input types,
    as the paper does with Relay's type system. *)

module Op = Nnsmith_ir.Op
module Conc = Nnsmith_ir.Ttype.Conc
module Graph = Nnsmith_ir.Graph

type t = {
  seen : (string, unit) Hashtbl.t;
  (* Concrete type -> rendered string.  Campaigns see the same few dozen
     concrete input types thousands of times; rendering each once makes
     key construction allocation-light. *)
  ty_memo : (Conc.t, string) Hashtbl.t;
}

let create () : t = { seen = Hashtbl.create 256; ty_memo = Hashtbl.create 64 }

let type_string t (c : Conc.t) =
  match Hashtbl.find_opt t.ty_memo c with
  | Some s -> s
  | None ->
      let s = Conc.to_string c in
      Hashtbl.add t.ty_memo c s;
      s

(* The instance key: the concrete operator and its input types, built
   through the type-string memo and a reused buffer. *)
let instance_key t buf (g : Graph.t) (n : Graph.node) =
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

(** Record all operator instances of a model; returns how many were new. *)
let add (t : t) (g : Graph.t) : int =
  let buf = Buffer.create 128 in
  List.fold_left
    (fun fresh (n : Graph.node) ->
      match n.Graph.op with
      | Op.Leaf _ -> fresh
      | _ ->
          let key = instance_key t buf g n in
          if Hashtbl.mem t.seen key then fresh
          else begin
            Hashtbl.replace t.seen key ();
            fresh + 1
          end)
    0 (Graph.nodes g)

let count (t : t) = Hashtbl.length t.seen
