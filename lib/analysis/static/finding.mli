(** One static protocol violation, proven from a program's text and its
    manifest — no execution involved. *)

type t = {
  rule : string;
      (** one of: ["static-bounds"], ["static-rights"],
          ["static-unknown-segment"], ["static-unbound-var"],
          ["static-unfenced-release"], ["static-unfenced-publish"],
          ["static-cas-reissue"], ["static-unbounded-retry"],
          ["static-lock-leak"] *)
  program : string;
  node : int;
  node_name : string;  (** the node program's role label *)
  seg : string;  (** offending segment (["-"] for program-level rules) *)
  detail : string;
}

val make :
  rule:string ->
  program:string ->
  node:int ->
  node_name:string ->
  seg:string ->
  string ->
  t
(** Asserts [rule] is a known rule name. *)

val describe : t -> string
