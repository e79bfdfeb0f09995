(** Reports: what every [rnet repro] experiment returns, and the
    plain-text tables the checkers print.

    A report is data: a title, typed columns, rows of typed cells, an
    optional totals row and notes (lines of text with typed values in
    them). Any cell may carry the paper's value and a band it must fall
    in. {!render} prints it as text (a grid, or grouped bars for the
    paper's figures), {!to_json} as JSON, and {!violations} checks every
    band. *)

type align = Left | Right
type better = Higher | Lower | Neither

type format =
  | Plain  (** text as is, a number as [%g] *)
  | Fixed of int  (** [%.*f] *)
  | Padded of int * int  (** [%*.*f]: width, decimals *)
  | Percent of int  (** [100 v] as [%.*f%%] *)
  | Delta of int  (** [100 v] as [%+.*f%%] *)

type column = {
  name : string;
  unit_ : string;
  better : better;
  format : format;
  align : align;
}

type value =
  | Num of float
  | Text of string
  | Flag of bool
  | Missing  (** renders empty; fails any band *)

(** One bound on a cell's value; a band is a list of them, all of
    which must hold. The numeric bounds fail on a text or flag value. *)
type limit =
  | Within of float  (** [|v - paper| <= x |paper|] *)
  | Near of float  (** [|v - paper| <= x] *)
  | Gt of float
  | Ge of float
  | Lt of float
  | Le of float
  | Is of value
      (** the value itself: a checker's expected rule set, verdict or
          flag, which a count would hide from the violation line *)

type cell = { value : value; paper : float option; band : limit list }

(** A note is one line of pieces. *)
type piece = Lit of string | Val of column * cell

type layout =
  | Grid
  | Bars
      (** One bar per row, named by its second cell; rows whose first
          cells are equal form a group; the numeric cells from the third
          on are the bar's segments, one fill character per column. *)

type t = {
  title : string option;
  layout : layout;
  columns : column list;
  rows : cell list list;
  total : cell list option;  (** drawn below a rule *)
  notes : piece list list;
}

val make :
  ?title:string ->
  ?layout:layout ->
  ?total:cell list ->
  ?notes:piece list list ->
  column list ->
  cell list list ->
  t
(** Raises [Invalid_argument] if a row's cell count mismatches the
    columns. With no rows and no total only the title and notes are
    drawn. *)

val label : ?align:align -> string -> column
(** A text column, left-aligned unless [align] says otherwise. *)

val number : ?unit_:string -> ?better:better -> string -> format -> column
(** A right-aligned numeric column. *)

val cell : ?band:limit list -> value -> cell
val is : value -> value -> cell
(** [is want got]: [got], banded [Is want]. *)

val text : string -> cell
val num : ?paper:float -> ?band:limit list -> float -> cell

val fields : (string * cell) list -> piece list
(** A note of [name value] pairs joined by commas, each value under a
    plain column of its name. *)

val render : t -> string

val to_json : t -> Json.t
(** Columns with their unit, direction and format; rows and the total
    as arrays of cells (a bare value, or [{"value", "paper", "band"}]
    when the cell carries a claim); notes as their text plus their
    values. A column or note value leaves out its ["unit"], ["better"]
    and ["format"] keys when they hold their defaults: a missing key
    reads as [""], ["neither"] and ["plain"]. *)

val violations : t -> string list
(** One line per cell whose band does not hold, empty when all do. *)
