(* A minimal RFC 8259 JSON reader, and the writer for its value tree.

   Every tool in this repository emits JSON by hand; until now the only
   check on those bytes was a structural validator that proved they
   *parse* without saying what they contain.  This module parses them
   into a value tree so tests can round-trip an artifact (Chrome traces,
   bench bands, obsreport output) and assert on its actual content —
   with no external dependency.

   Numbers are all read as floats (JSON has one number type); strings
   decode the standard escapes, with \uXXXX kept as UTF-8 for the BMP
   (surrogate pairs are out of scope for our artifacts and decode to
   U+FFFD). *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = { text : string; mutable pos : int }

let error state fmt =
  Printf.ksprintf
    (fun msg ->
      raise (Parse_error (Printf.sprintf "at byte %d: %s" state.pos msg)))
    fmt

let peek s = if s.pos < String.length s.text then Some s.text.[s.pos] else None

let skip_ws s =
  while
    s.pos < String.length s.text
    &&
    match s.text.[s.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    s.pos <- s.pos + 1
  done

let expect s c =
  match peek s with
  | Some d when Char.equal c d -> s.pos <- s.pos + 1
  | Some d -> error s "expected %C, found %C" c d
  | None -> error s "expected %C, found end of input" c

let keyword s word value =
  let l = String.length word in
  if
    s.pos + l <= String.length s.text
    && String.equal (String.sub s.text s.pos l) word
  then begin
    s.pos <- s.pos + l;
    value
  end
  else error s "bad keyword"

(* UTF-8 encode one BMP code point. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string s =
  expect s '"';
  let buf = Buffer.create 16 in
  let rec scan () =
    match peek s with
    | None -> error s "unterminated string"
    | Some '"' -> s.pos <- s.pos + 1
    | Some '\\' ->
        s.pos <- s.pos + 1;
        (match peek s with
        | None -> error s "unterminated escape"
        | Some c ->
            s.pos <- s.pos + 1;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if s.pos + 4 > String.length s.text then
                  error s "truncated \\u escape";
                let hex = String.sub s.text s.pos 4 in
                s.pos <- s.pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex)
                  with Failure _ -> error s "bad \\u escape %S" hex
                in
                (* Surrogates: not produced by our emitters; replace. *)
                if code >= 0xD800 && code <= 0xDFFF then add_utf8 buf 0xFFFD
                else add_utf8 buf code
            | c -> error s "bad escape \\%C" c));
        scan ()
    | Some c ->
        s.pos <- s.pos + 1;
        Buffer.add_char buf c;
        scan ()
  in
  scan ();
  Buffer.contents buf

let parse_number s =
  let start = s.pos in
  let numeric c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while
    s.pos < String.length s.text && numeric s.text.[s.pos]
  do
    s.pos <- s.pos + 1
  done;
  let lexeme = String.sub s.text start (s.pos - start) in
  match float_of_string_opt lexeme with
  | Some f -> f
  | None -> error s "bad number %S" lexeme

let rec parse_value s =
  skip_ws s;
  match peek s with
  | Some '{' -> parse_obj s
  | Some '[' -> parse_list s
  | Some '"' -> String (parse_string s)
  | Some 't' -> keyword s "true" (Bool true)
  | Some 'f' -> keyword s "false" (Bool false)
  | Some 'n' -> keyword s "null" Null
  | Some ('-' | '0' .. '9') -> Number (parse_number s)
  | Some c -> error s "unexpected %C" c
  | None -> error s "unexpected end of input"

and parse_obj s =
  expect s '{';
  skip_ws s;
  if peek s = Some '}' then begin
    s.pos <- s.pos + 1;
    Obj []
  end
  else begin
    let members = ref [] in
    let rec next () =
      skip_ws s;
      let key = parse_string s in
      skip_ws s;
      expect s ':';
      let value = parse_value s in
      members := (key, value) :: !members;
      skip_ws s;
      match peek s with
      | Some ',' ->
          s.pos <- s.pos + 1;
          next ()
      | _ -> expect s '}'
    in
    next ();
    Obj (List.rev !members)
  end

and parse_list s =
  expect s '[';
  skip_ws s;
  if peek s = Some ']' then begin
    s.pos <- s.pos + 1;
    List []
  end
  else begin
    let elements = ref [] in
    let rec next () =
      elements := parse_value s :: !elements;
      skip_ws s;
      match peek s with
      | Some ',' ->
          s.pos <- s.pos + 1;
          next ()
      | _ -> expect s ']'
    in
    next ();
    List (List.rev !elements)
  end

let parse text =
  let s = { text; pos = 0 } in
  match parse_value s with
  | v ->
      skip_ws s;
      if s.pos <> String.length text then
        Error (Printf.sprintf "trailing bytes at %d" s.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* ---------------- Accessors ---------------- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_list = function List items -> Some items | _ -> None
let to_string = function String s -> Some s | _ -> None
let to_number = function Number f -> Some f | _ -> None

(* ---------------- Writer ---------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The shortest of %.15g / %.17g that reads back as the same float;
   JSON has no infinity or NaN, so those are null. *)
let number f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Number f -> number f
  | String s -> "\"" ^ escape s ^ "\""
  | List items -> "[" ^ String.concat "," (List.map write items) ^ "]"
  | Obj fields ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ write v) fields)
      ^ "}"
