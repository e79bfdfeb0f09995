(** One recorded touch of shared memory, with everything the race
    checker needs: who, where, what kind, and its happens-before
    stamps. *)

type seg_key = { home : int; seg : int; gen : int }
(** Identity of a shared region: exporting node address, segment id,
    and export generation — two generations of the same id are
    different memories. *)

type kind =
  | Load  (** remote READ, or a plain local load *)
  | Store  (** remote WRITE, or a plain local store *)
  | Atomic  (** CAS (successful or not: the word is accessed atomically) *)

type origin =
  | Meta of Rmem.Rights.op  (** a served meta-instruction, attributed to its issuer *)
  | Local  (** direct touch of exported memory on its home node *)

type t = {
  id : int;
  agent : int;  (** issuing / touching agent *)
  agent_name : string;
  key : seg_key;
  seg_name : string;
  kind : kind;
  off : int;
  count : int;
  time : Sim.Time.t;  (** simulation time the memory was touched *)
  stamp : Vclock.t;
      (** the agent's clock when the operation was issued: a lower bound
          on everything the touch happens-after *)
  mutable vis : Vclock.t list;
      (** visibility witnesses: clocks at moments where the touch was
          {e known} to have reached memory (read/CAS completion flushes,
          notification delivery). An event whose stamp dominates any
          witness happens-after this access. Empty until witnessed. *)
  origin : origin;
}

val is_write : t -> bool
val overlaps : t -> t -> bool
(** Same region and intersecting byte ranges (empty ranges never overlap). *)

val ordered_before : t -> t -> bool
(** [ordered_before a b]: some visibility witness of [a] is dominated by
    [b]'s issue stamp, so [a]'s memory effect happens-before [b]'s. *)

val key_to_string : seg_key -> string
val kind_to_string : kind -> string
val describe : t -> string
