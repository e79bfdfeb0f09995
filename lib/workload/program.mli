(** A small typed IR for per-node meta-instruction programs — the
    declarative skeleton of a workload's data-transfer protocol.

    Programs pair an export manifest ({!Rmem.Manifest}) with one
    instruction list per participating node: reads, writes, CAS, fences
    and notification waits over {e named} segments, with bounded loops
    and a retry combinator.  Offsets are integer expressions over loop
    variables and declared-range word reads, so an abstract interpreter
    ([Analysis.Static]) can bound every access without executing
    anything.  There is deliberately no general control flow: the
    paper's data-transfer sequences are straight-line, and that is what
    makes them checkable at map time. *)

type expr =
  | Const of int
  | Var of string  (** a loop variable or a [Read_word] binding *)
  | Add of expr * expr
  | Mul of expr * expr

type role =
  | Plain  (** an ordinary atomic update (ticket claims, counters) *)
  | Acquire  (** wins a lock word *)
  | Release  (** frees a lock word — the paper's fence-before-release
                 discipline applies to it *)

type instr =
  | Read of { seg : string; off : expr; len : expr }
      (** blocking remote READ *)
  | Read_word of { seg : string; off : expr; var : string; lo : int; hi : int }
      (** read one word and bind it to [var], declared to range over
          [\[lo, hi\]] — the protocol's value invariant, consumed by the
          interval analysis.  Local when the program's node exports
          [seg], a remote READ otherwise. *)
  | Write of { seg : string; off : expr; len : expr; notify : bool }
      (** unacknowledged remote WRITE, optionally raising a doorbell *)
  | Cas of { seg : string; off : expr; role : role }
      (** remote CAS of the aligned word at [off] *)
  | Fence of { seg : string }
      (** block until every earlier WRITE to [seg] is deposited (also
          models a policied write's read-back verification) *)
  | Wait of { seg : string }
      (** block on the segment's notification descriptor *)
  | Local_read of { seg : string; off : expr; len : expr }
      (** direct touch of exported memory on its home node *)
  | Local_write of { seg : string; off : expr; len : expr }
  | For of { var : string; lo : int; hi : int; body : instr list }
      (** bounded loop, [var] ranging over [\[lo, hi\]] inclusive *)
  | Retry of {
      attempts : int option;  (** [None] = unbounded *)
      backoff : bool;  (** pauses between attempts *)
      verified : bool;
          (** the wrapper re-derives the outcome from memory (re-read /
              read-back) rather than trusting the disjunction of reply
              statuses — [false] is the lost-reply double-apply
              hazard *)
      body : instr list;
    }

type node_program = {
  node : int;
  name : string;  (** role label, e.g. ["client"], ["writer"] *)
  body : instr list;
}

type t = {
  name : string;
  manifest : Rmem.Manifest.t;
  nodes : node_program list;
}

val word : int
(** CAS and [Read_word] cover this many bytes (4). *)

(** {1 Constructors} — terse enough that a catalog reads like the
    protocol it declares. *)

val c : int -> expr
val v : string -> expr

val ( + ) : expr -> expr -> expr
(** Shadows integer addition; open locally. *)

val ( * ) : expr -> expr -> expr

val read : seg:string -> off:expr -> len:expr -> instr
val read_word : seg:string -> off:expr -> var:string -> lo:int -> hi:int -> instr
val write : ?notify:bool -> seg:string -> off:expr -> len:expr -> unit -> instr
val cas : ?role:role -> string -> off:expr -> instr
val fence : string -> instr
val wait : string -> instr
val local_read : seg:string -> off:expr -> len:expr -> instr
val local_write : seg:string -> off:expr -> len:expr -> instr
val for_ : string -> lo:int -> hi:int -> instr list -> instr

val retry :
  ?attempts:int -> ?backoff:bool -> ?verified:bool -> instr list -> instr
(** Defaults: unbounded, no backoff, [verified:true]. *)

(** {1 Rendering} *)

val expr_to_string : expr -> string

val instr_count : instr list -> int
(** Instructions including nested bodies (loop/retry headers count 1). *)
