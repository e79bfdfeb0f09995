(** Instrumentation events emitted around client-facing operations.

    A hook is called with [Begin] when an operation starts on a node and
    with [Commit] when it completes, carrying the logical result: a read
    or write of the structure's designated cell ([word] is a byte offset
    within segment [seg]/generation [gen] exported at node [home]).  The
    analysis layer adapts these onto [Monitor.logical_begin] /
    [logical_commit] so histories contain one logical event per
    operation instead of the underlying physical traffic. *)

type op =
  | Read of int32
  | Write of int32
  | Sync
      (** a flush/fence: observes nothing the history can constrain,
          but must still be scoped so its physical round trip is
          suppressed *)

type event =
  | Begin of { node : int }
  | Commit of {
      node : int;
      home : int;
      seg : int;
      gen : int;
      word : int;
      op : op;
    }

type t = event -> unit

(** {1 Emitting} Each builds its event only when a hook is attached. *)

val begin_op : t option -> node:int -> unit

val commit :
  t option -> node:int -> cell:int * int * int -> word:int -> read:bool ->
  int -> unit
(** A [Read] (with [read]) or [Write] of the value at [word] of [cell],
    which is (home, seg, gen). *)

val sync : t option -> node:int -> cell:int * int * int -> unit
(** A [Sync] at word 0 of [cell]. *)
