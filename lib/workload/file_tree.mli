(** Synthetic server namespace standing in for the paper's departmental
    exports: directories of read-mostly files with skewed sizes and
    popularity, plus symbolic links. *)

type t

val build : Sim.Prng.t -> t
(** 24 directories of 16 files and 2 symbolic links each. *)

val write_pattern : Dfs.File_store.t -> int -> start:int -> len:int -> unit
(** [write_pattern store fh ~start ~len] writes [len] bytes at offset 0
    of the file, byte [i] being [(start + i) land 0xFF], straight into
    its blocks. Every tree file [fh] holds the [start = fh] pattern, so
    a replay can verify what it reads. *)

val store : t -> Dfs.File_store.t
val pick_file : t -> Sim.Prng.t -> int
(** Zipf-popular file handle. *)

val pick_dir : t -> Sim.Prng.t -> int
val pick_symlink : t -> Sim.Prng.t -> int
val pick_name_in : t -> Sim.Prng.t -> dir:int -> string
