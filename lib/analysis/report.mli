(** Plain-text rendering of an analysis run, via {!Metrics.Table}. *)

val print :
  title:string -> Monitor.t -> races:Race.t list -> findings:Lint.finding list -> unit

val json_escape : string -> string
(** Escape a string for inclusion inside a JSON string literal (without
    the surrounding quotes). *)

val schema_version : int
(** Version of the JSON shapes the analysis CLIs emit ([racecheck],
    [modelcheck], [chaoscheck], [lincheck]); every top-level object
    carries it as ["schema"]. Bump on any incompatible change. *)

val json :
  title:string -> Monitor.t -> races:Race.t list -> findings:Lint.finding list -> string
(** One JSON object per workload run: totals plus full race and finding
    lists. No trailing newline. *)

(** Writer combinators for the CLIs' hand-emitted JSON, so racecheck,
    modelcheck, lincheck, protocheck and obsreport all assemble their
    output the same way. Values are already-serialized fragments. *)
module Json : sig
  type t

  val str : string -> t
  val int : int -> t
  val bool : bool -> t
  val raw : string -> t
  (** An already-valid JSON fragment, included verbatim. *)

  val list : t list -> t
  val obj : (string * t) list -> t
  val to_string : t -> string
end

val emit : tool:string -> string -> unit
(** Self-validate [line] with {!Metrics.Json.parse} (exit 1 with a
    diagnostic on [tool]'s behalf if it fails) and print it. Every CLI
    [--json] line goes through here. *)
