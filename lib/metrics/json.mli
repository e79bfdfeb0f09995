(** A minimal RFC 8259 JSON reader and writer, so tests and CLIs can round-trip the
    hand-emitted artifacts (Chrome traces, bench bands, obsreport
    output) and assert on their content, not just their shape.

    Numbers are read as floats; string escapes decode per the RFC, with
    BMP [\uXXXX] kept as UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-input parse; [Error] carries a byte position and reason. *)

(** {1 Accessors} — all total, [None] on kind/shape mismatch. *)

val member : string -> t -> t option

val to_list : t -> t list option
val to_string : t -> string option
val to_number : t -> float option

(** {1 Writer} *)

val escape : string -> string
(** Escape a string for inclusion inside a JSON string literal (without
    the surrounding quotes). *)

val write : t -> string
(** One line, no trailing newline. A number is written with the fewest
    digits (15 or 17 significant) that parse back to the same float; a
    non-finite one is written [null]. *)
