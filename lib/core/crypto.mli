(** Link encryption for untrusted environments (§3.5): an involutive
    key-stream transform on the data path, with a per-word cost that
    models hardware (AN1-style controller) versus software
    implementations. *)

type t

val make : key:int -> per_word_cost:Sim.Time.t -> t
(** Test-only: a key pair that does not match, which no workload builds. *)

val transform : t -> ?pos:int -> ?len:int -> bytes -> bytes
(** Encrypt/decrypt (involution) [len] bytes from [pos] (default: the
    whole buffer) into a fresh buffer, the byte at [pos] taking the
    first key-stream byte.
    Two endpoints agree iff their keys match; a receiver without the
    right key sees ciphertext. *)

val cost : t -> bytes:int -> Sim.Time.t
(** CPU time to transform [bytes] at the configured per-word rate. *)

val hardware_an1 : t
(** Near-free: the controller encrypts as data streams through. *)

val software_des : t
(** A software DES-class cipher on the workstation CPU: dominant, the
    paper's "will not provide adequate performance" case. *)
