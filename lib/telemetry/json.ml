type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emission.                                                           *)

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_num b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else Buffer.add_string b (Printf.sprintf "%.12g" f)

let to_string (v : t) : string =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> add_num b f
    | Str s -> add_escaped b s
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            add_escaped b k;
            Buffer.add_char b ':';
            go x)
          kvs;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent).                                        *)

exception Bad of string

(* UTF-8 encode a BMP code point (what \uXXXX can carry). *)
let add_utf8 b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "invalid literal"
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | 'e' | 'E' | '.' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "truncated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if !pos + 4 >= n then fail "truncated \\u escape";
                (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
                | Some code -> add_utf8 b code
                | None -> fail "malformed \\u escape");
                pos := !pos + 4
            | _ -> fail "unknown escape");
            incr pos;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_lit ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some _ -> number ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec field () =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            field ()
        | Some '}' -> incr pos
        | _ -> fail "expected ',' or '}'"
      in
      field ();
      Obj (List.rev !fields)
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      Arr []
    end
    else begin
      let items = ref [] in
      let rec item () =
        let v = value () in
        items := v :: !items;
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            item ()
        | Some ']' -> incr pos
        | _ -> fail "expected ',' or ']'"
      in
      item ();
      Arr (List.rev !items)
    end
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad m -> Error m

(* ------------------------------------------------------------------ *)
(* Accessors.                                                          *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_int = function Num f -> Some (int_of_float f) | _ -> None
let to_str = function Str s -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Field readers and encoders shared by the journal, corpus and fleet
   schemas.                                                            *)

module Syntax = struct
  let ( let* ) = Result.bind
end

open Syntax

let int_field j k =
  match Option.bind (member k j) to_int with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "missing int field %S" k)

let float_field j k =
  match Option.bind (member k j) to_float with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "missing float field %S" k)

let str_field j k =
  match Option.bind (member k j) to_str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing string field %S" k)

let bool_field j k =
  match member k j with
  | Some (Bool b) -> Ok b
  | _ -> Error (Printf.sprintf "missing bool field %S" k)

(* Decode each element in order, stopping at the first error. *)
let map_result f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
        let* y = f x in
        go (y :: acc) rest
  in
  go [] xs

let strings_to_json xs = Arr (List.map (fun s -> Str s) xs)

let strings_of_json k j =
  match member k j with
  | Some (Arr xs) ->
      map_result
        (function
          | Str s -> Ok s
          | _ -> Error (Printf.sprintf "field %S: non-string element" k))
        xs
  | Some _ -> Error (Printf.sprintf "field %S is not an array" k)
  | None -> Ok []

let counts_to_json kvs =
  Obj (List.map (fun (k, n) -> (k, Num (float_of_int n))) kvs)

let counts_of_value = function
  | Obj kvs ->
      map_result
        (function
          | k, Num n -> Ok (k, int_of_float n)
          | k, _ -> Error (Printf.sprintf "count field %S not a number" k))
        kvs
  | _ -> Error "counts field is not an object"

let counts_of_json k j =
  match member k j with Some v -> counts_of_value v | None -> Ok []

let ops_to_json ops =
  Obj (List.map (fun (op, vs) -> (op, counts_to_json vs)) ops)

let ops_of_json k j =
  match member k j with
  | Some (Obj kvs) ->
      map_result
        (fun (op, v) ->
          let* vs = counts_of_value v in
          Ok (op, vs))
        kvs
  | Some _ -> Error (Printf.sprintf "%s field is not an object" k)
  | None -> Ok []

let sites_to_json kvs = Obj (List.map (fun (site, p) -> (site, Bool p)) kvs)

let sites_of_json k j =
  match member k j with
  | Some (Obj kvs) ->
      map_result
        (function
          | site, Bool p -> Ok (site, p)
          | site, _ -> Error (Printf.sprintf "site %S not a bool" site))
        kvs
  | Some _ -> Error (Printf.sprintf "field %S is not an object" k)
  | None -> Ok []
