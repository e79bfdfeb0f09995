(** The system benchmark's JSON writer. [bench/suite/suite.ml] writes
    its run records with these string-fragment combinators and prints
    them through {!emit}; nothing else does (every [rnet] report is a
    {!Metrics.Table} written as a {!Metrics.Json} tree), and the module
    stays only because the benchmark's sources are fixed. *)

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
    diagnostic on [tool]'s behalf if it fails) and print it. *)
