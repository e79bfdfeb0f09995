(** Synthetic server namespace standing in for the paper's departmental
    exports: directories of read-mostly files with skewed sizes and
    popularity, plus symbolic links. *)

type t

val build : Sim.Prng.t -> t
(** 24 directories of 16 files and 2 symbolic links each. *)

val pattern : int -> int -> bytes
(** [pattern start n]: [n] bytes, byte [i] being [(start + i) land 0xFF]
    — every file's contents, so a replay can verify what it reads. *)

val store : t -> Dfs.File_store.t
val file_count : t -> int
(** Test-only: the workload tests check the generated tree's shape. *)

val dir_count : t -> int
(** Test-only: the workload tests check the generated tree's shape. *)

val pick_file : t -> Sim.Prng.t -> int
(** Zipf-popular file handle. *)

val pick_dir : t -> Sim.Prng.t -> int
val pick_symlink : t -> Sim.Prng.t -> int
val pick_name_in : t -> Sim.Prng.t -> dir:int -> string
