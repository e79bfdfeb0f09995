(** The server's local file system substrate: an in-memory inode store
    with regular files (8 KB blocks), directories and symbolic links,
    carrying NFS-flavoured attributes. *)

exception No_such_file of int
exception Not_a_directory of int
exception Not_a_symlink of int
exception Not_a_file of int
exception Name_exists of string

val block_bytes : int
(** 8192. *)

val attr_bytes : int
(** 68 — the NFS fattr wire size. *)

type kind = Regular | Directory | Symlink

type attr = {
  inode : int;
  kind : kind;
  mode : int;
  nlink : int;
  uid : int;
  gid : int;
  size : int;
  atime : int;
  mtime : int;
  ctime : int;
}

type t

val create : unit -> t
val root : t -> int

(** {1 Namespace} *)

val create_file : t -> dir:int -> name:string -> unit -> int
val mkdir : t -> dir:int -> name:string -> unit -> int
val symlink : t -> dir:int -> name:string -> target:string -> int
val lookup : t -> dir:int -> name:string -> int
(** Raises {!No_such_file} when absent. *)

exception Not_empty of int

val remove : t -> dir:int -> name:string -> unit
(** Unlink a file or symlink (not a directory). *)

val rmdir : t -> dir:int -> name:string -> unit
(** Remove an empty directory; raises {!Not_empty} otherwise. *)

val rename :
  t -> from_dir:int -> from_name:string -> to_dir:int -> to_name:string -> unit
(** Raises {!Name_exists} if the target name is taken. *)

val set_attr : t -> int -> ?mode:int -> ?size:int -> unit -> unit
(** Change mode and/or size (truncate zeros the dropped tail). *)

val readdir : t -> int -> (string * int) list
val readlink : t -> int -> string

(** {1 Data and metadata} *)

val getattr : t -> int -> attr
val read : t -> int -> off:int -> count:int -> bytes
(** Short reads at EOF; holes read as zeros. *)

val read_length : t -> int -> off:int -> count:int -> int
(** How many bytes {!read} returns: [count], cut at EOF. *)

val read_into : t -> int -> off:int -> count:int -> bytes -> pos:int -> unit
(** {!read}'s bytes, [count] at most {!read_length}, written at [pos] of
    the buffer. *)

val read_to :
  t -> int -> off:int -> count:int -> Cluster.Address_space.t -> addr:int ->
  unit
(** [count] bytes from [off] at [addr] of the space, copied straight from
    the file's blocks: {!read}'s bytes, then zeros up to [count]. *)

val write : t -> int -> off:int -> bytes -> unit
(** Extends the file as needed. *)

val write_with :
  t -> int -> off:int -> len:int -> (int -> bytes -> int -> int -> unit) -> unit
(** {!write} of [len] bytes that the caller stores itself: [fill pos
    block boff span] puts the source's bytes [pos] to [pos + span - 1]
    at [boff] of a file block. A block the write creates and covers
    whole is handed over unfilled. *)

val write_from :
  t -> int -> off:int -> Cluster.Address_space.t -> addr:int -> len:int -> unit
(** {!write} of the [len] bytes at [addr] of the space, copied straight
    into the file's blocks. *)

type statfs = {
  total_blocks : int;
  free_blocks : int;
  files : int;
  block_size : int;
}

val statfs : t -> statfs

val entries_length : (string * int) list -> int
(** The length of the entries' packing, as READDIR returns them. *)

val entries_into : (string * int) list -> bytes -> pos:int -> len:int -> unit
(** The first [len] bytes of their packing, at [pos] of the buffer. *)
