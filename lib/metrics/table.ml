(* Reports as data: typed columns, rows of typed cells and notes, any
   cell of which may carry the paper's value and a band around it.  One
   text renderer (a grid, or the grouped bars of Figures 2 and 3), one
   JSON writer and one band check serve every experiment. *)

type align = Left | Right
type better = Higher | Lower | Neither

type format =
  | Plain
  | Fixed of int
  | Padded of int * int
  | Percent of int
  | Delta of int

type column = {
  name : string;
  unit_ : string;
  better : better;
  format : format;
  align : align;
}

type value = Num of float | Text of string | Flag of bool | Missing

type limit =
  | Within of float
  | Near of float
  | Gt of float
  | Ge of float
  | Lt of float
  | Le of float
  | Is of value
type cell = { value : value; paper : float option; band : limit list }
type piece = Lit of string | Val of column * cell
type layout = Grid | Bars

type t = {
  title : string option;
  layout : layout;
  columns : column list;
  rows : cell list list;
  total : cell list option;
  notes : piece list list;
}

let make ?title ?(layout = Grid) ?total ?(notes = []) columns rows =
  let width = List.length columns in
  let all_rows = Option.to_list total @ rows in
  if List.exists (fun row -> List.length row <> width) all_rows then
    invalid_arg "Table.make: wrong number of cells";
  { title; layout; columns; rows; total; notes }

let label ?(align = Left) name =
  { name; unit_ = ""; better = Neither; format = Plain; align }

let number ?(unit_ = "") ?(better = Neither) name format =
  { name; unit_; better; format; align = Right }

let cell ?(band = []) value = { value; paper = None; band }
let is want got = cell ~band:[ Is want ] got
let text s = cell (Text s)
let num ?paper ?(band = []) v = { value = Num v; paper; band }

let fields pairs =
  List.concat
    (List.mapi
       (fun i (name, cell) ->
         [
           Lit ((if i = 0 then "" else ", ") ^ name ^ " ");
           Val (label name, cell);
         ])
       pairs)

let show format cell =
  match (cell.value, format) with
  | Text s, _ -> s
  | Flag b, _ -> string_of_bool b
  | Missing, _ -> ""
  | Num v, Plain -> Printf.sprintf "%g" v
  | Num v, Fixed d -> Printf.sprintf "%.*f" d v
  | Num v, Padded (w, d) -> Printf.sprintf "%*.*f" w d v
  | Num v, Percent d -> Printf.sprintf "%.*f%%" d (100. *. v)
  | Num v, Delta d -> Printf.sprintf "%+.*f%%" d (100. *. v)

(* ---------------- Text ---------------- *)

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render_grid buf t =
  let cells row = List.map2 (fun c cell -> show c.format cell) t.columns row in
  let body = List.map cells t.rows and total = Option.map cells t.total in
  let widths =
    List.fold_left
      (List.map2 (fun w s -> Stdlib.max w (String.length s)))
      (List.map (fun c -> String.length c.name) t.columns)
      (body @ Option.to_list total)
  in
  let rule () =
    Buffer.add_char buf '+';
    List.iter (fun w -> Printf.bprintf buf "%s+" (String.make (w + 2) '-'))
      widths;
    Buffer.add_char buf '\n'
  in
  let line strings =
    Buffer.add_char buf '|';
    List.iteri
      (fun i s ->
        let c = List.nth t.columns i in
        Printf.bprintf buf " %s |" (pad c.align (List.nth widths i) s))
      strings;
    Buffer.add_char buf '\n'
  in
  rule ();
  line (List.map (fun c -> c.name) t.columns);
  rule ();
  List.iter line body;
  Option.iter
    (fun total ->
      if body <> [] then rule ();
      line total)
    total;
  rule ()

let fill = "#=+-~o*x"

(* Bars share one scale: the largest total maps to 60 cells.  Each
   segment's end is scaled, not its length, so a bar's length is its
   scaled total exactly. *)
let render_bars buf t =
  let segments = List.filteri (fun i _ -> i >= 2) t.columns in
  let value cell = match cell.value with Num v -> v | _ -> 0. in
  let bars =
    List.map
      (function
        | group :: name :: segs ->
            (show Plain group, show Plain name, List.map value segs)
        | _ -> invalid_arg "Table.render: a bar needs a group and a name")
      t.rows
  in
  let sum = List.fold_left ( +. ) 0. in
  let widest f =
    List.fold_left (fun w b -> Stdlib.max w (String.length (f b))) 0 bars
  in
  let group_width = widest (fun (g, _, _) -> g) in
  let name_width = widest (fun (_, n, _) -> n) in
  let max_total =
    List.fold_left (fun m (_, _, s) -> Float.max m (sum s)) 0. bars
  in
  let scale v =
    if max_total <= 0. then 0
    else int_of_float (Float.round (v /. max_total *. 60.))
  in
  let unit_ = match segments with c :: _ -> c.unit_ | [] -> "" in
  ignore
    (List.fold_left
       (fun previous (group, name, segs) ->
         let shown = if previous = Some group then "" else group in
         Printf.bprintf buf "%-*s %-*s |" group_width shown name_width name;
         ignore
           (List.fold_left
              (fun (i, cum, drawn) v ->
                let upto = scale (cum +. v) in
                if upto > drawn then
                  Buffer.add_string buf
                    (String.make (upto - drawn) fill.[i mod 8]);
                (i + 1, cum +. v, Stdlib.max drawn upto))
              (0, 0., 0) segs);
         Printf.bprintf buf "| %.1f%s\n" (sum segs) unit_;
         Some group)
       None bars);
  if List.length segments > 1 then begin
    Buffer.add_string buf "legend:";
    List.iteri
      (fun i c -> Printf.bprintf buf " [%c]=%s" fill.[i mod 8] c.name)
      segments;
    Buffer.add_char buf '\n'
  end

let note_text note =
  String.concat ""
    (List.map (function Lit s -> s | Val (c, cell) -> show c.format cell) note)

let render t =
  let buf = Buffer.create 2048 in
  Option.iter (Printf.bprintf buf "%s\n") t.title;
  (match t.layout with
  | _ when t.rows = [] && t.total = None -> ()
  | Grid -> render_grid buf t
  | Bars -> render_bars buf t);
  List.iter (fun note -> Printf.bprintf buf "%s\n" (note_text note)) t.notes;
  Buffer.contents buf

(* ---------------- Bands and JSON ---------------- *)

(* A missing value fails every band, a text or flag every numeric one,
   and a relative or absolute band without a paper value never holds. *)
let holds paper value limit =
  match (value, limit, paper) with
  | Missing, _, _ -> false
  | _, Is x, _ -> value = x
  | Num v, Within x, Some p -> Float.abs (v -. p) <= x *. Float.abs p
  | Num v, Near x, Some p -> Float.abs (v -. p) <= x
  | Num v, Gt x, _ -> v > x
  | Num v, Ge x, _ -> v >= x
  | Num v, Lt x, _ -> v < x
  | Num v, Le x, _ -> v <= x
  | _ -> false

let value_json = function
  | Num v -> Json.Number v
  | Text s -> Json.String s
  | Flag b -> Json.Bool b
  | Missing -> Json.Null

let claim_json cell =
  let limit = function
    | Within x -> ("within", Json.Number x)
    | Near x -> ("near", Json.Number x)
    | Gt x -> ("gt", Json.Number x)
    | Ge x -> ("ge", Json.Number x)
    | Lt x -> ("lt", Json.Number x)
    | Le x -> ("le", Json.Number x)
    | Is v -> ("is", value_json v)
  in
  Option.fold ~none:[] ~some:(fun p -> [ ("paper", Json.Number p) ]) cell.paper
  @ if cell.band = [] then [] else [ ("band", Json.Obj (List.map limit cell.band)) ]

let violations t =
  let title = Option.value ~default:"report" t.title in
  let check where (c : column) cell =
    if List.for_all (holds cell.paper cell.value) cell.band then None
    else
      Some
        (Printf.sprintf "%s: %s%s = %s outside %s" title where c.name
           (show c.format cell)
           (Json.write (Json.Obj (claim_json cell))))
  in
  let row cells =
    let where =
      String.concat ""
        (List.filter_map
           (function
             | { value = Text s; _ } when s <> "" -> Some (s ^ ": ")
             | _ -> None)
           cells)
    in
    List.filter_map Fun.id (List.map2 (check where) t.columns cells)
  in
  List.concat_map row (t.rows @ Option.to_list t.total)
  @ List.concat_map
      (List.filter_map (function
        | Val (c, cell) -> check "note: " c cell
        | Lit _ -> None))
      t.notes

let cell_json cell =
  match claim_json cell with
  | [] -> value_json cell.value
  | claim -> Json.Obj (("value", value_json cell.value) :: claim)

(* [None] for the default, [Plain], whose key is left out. *)
let format_json = function
  | Plain -> None
  | Fixed d -> Some (Printf.sprintf "%%.%df" d)
  | Padded (w, d) -> Some (Printf.sprintf "%%%d.%df" w d)
  | Percent d -> Some (Printf.sprintf "percent %%.%df" d)
  | Delta d -> Some (Printf.sprintf "delta %%+.%df" d)

(* A column's keys, each left out when it holds its default. *)
let column_json c =
  ("name", Json.String c.name)
  :: List.filter_map Fun.id
       [
         (if c.unit_ = "" then None else Some ("unit", Json.String c.unit_));
         (match c.better with
         | Higher -> Some ("better", Json.String "higher")
         | Lower -> Some ("better", Json.String "lower")
         | Neither -> None);
         Option.map (fun f -> ("format", Json.String f)) (format_json c.format);
       ]

let note_json note =
  let value = function
    | Val (c, cell) ->
        Some
          (Json.Obj
             (column_json c @ (("value", value_json cell.value) :: claim_json cell)))
    | Lit _ -> None
  in
  Json.Obj
    [
      ("text", Json.String (note_text note));
      ("values", Json.List (List.filter_map value note));
    ]

let to_json t =
  let row cells = Json.List (List.map cell_json cells) in
  Json.Obj
    [
      ( "title",
        Option.fold ~none:Json.Null ~some:(fun s -> Json.String s) t.title );
      ( "layout",
        Json.String (match t.layout with Grid -> "grid" | Bars -> "bars") );
      ( "columns",
        Json.List (List.map (fun c -> Json.Obj (column_json c)) t.columns) );
      ("rows", Json.List (List.map row t.rows));
      ("total", Option.fold ~none:Json.Null ~some:row t.total);
      ("notes", Json.List (List.map note_json t.notes));
    ]
