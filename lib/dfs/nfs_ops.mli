(** The file-service operation vocabulary (the NFS-like interface of
    Table 1a): op/result types, wire encodings, the control/data traffic
    classification behind Table 1b, and the per-op server procedure
    costs used by the Hybrid-1 comparison. *)

type op =
  | Null
  | Get_attr of { fh : int }
  | Lookup of { dir : int; name : string }
  | Read_link of { fh : int }
  | Read of { fh : int; off : int; count : int }
  | Read_dir of { fh : int; count : int }
  | Statfs
  | Write of { fh : int; off : int; data : bytes }
  | Set_attr of { fh : int; mode : int; size : int }
      (** namespace/attribute mutations — Table 1a's "Other" activity *)
  | Create of { dir : int; name : string }
  | Remove of { dir : int; name : string }
  | Rename of {
      from_dir : int;
      from_name : string;
      to_dir : int;
      to_name : string;
    }
  | Mkdir of { dir : int; name : string }
  | Rmdir of { dir : int; name : string }

type result =
  | R_null
  | R_attr of File_store.attr
  | R_lookup of { fh : int; attr : File_store.attr }
  | R_link of string
  | R_data of bytes
  | R_entries of bytes
  | R_statfs of File_store.statfs
  | R_write of File_store.attr
  | R_error of int

val label : op -> string
(** The paper's Table 1a activity name for this operation. *)

val all_labels : string list
(** Table 1a row order, including "Other". *)

(** {1 Attribute encoding (the 68-byte NFS fattr)} *)

val encode_attr : File_store.attr -> bytes

val attr_into : File_store.attr -> bytes -> pos:int -> unit
(** {!encode_attr}'s 68 bytes, written at [pos] of the buffer. *)

val decode_attr : bytes -> File_store.attr

val attr_at : Cluster.Address_space.t -> addr:int -> File_store.attr
(** The fattr encoded at [addr], decoded where it lies: no intermediate
    buffer and no closure, only the record. *)

(** {1 Traffic classification (Table 1b)}

    Data is what a direct memory-to-memory primitive would have to move;
    handles, xids, offsets, names-used-to-locate and padding are control. *)

type traffic = { control : int; data : int }

val fh_bytes : int
(** 32 — opaque NFS file handle. *)

val request_traffic : op -> traffic
val reply_traffic : result -> traffic

(** {1 Compact binary encoding (Hybrid-1 requests and replies)} *)

val request_into : op -> bytes -> int
(** [[reply offset u32][op]]: the op encoded in place from byte 4 of a
    request buffer, behind the word {!Rmem.Hybrid.call} fills; the
    request's length, 4 + the op's. Raises [Invalid_argument] if it
    does not fit. *)

type request =
  | Op of op
  | Write_at of { fh : int; off : int; len : int; data : int }
      (** a Write, whose [len] bytes lie at address [data] *)

val request_at : Cluster.Address_space.t -> addr:int -> request
(** The op encoded at [addr] (past the request's first word), decoded where it
    landed: every field is read as a word, a name copied once into its
    string, and a Write's data left in place for the store to take
    straight from there. *)

val result_into : result -> bytes -> pos:int -> int
(** A result encoded in place at [pos] of a buffer; its length. Raises
    [Invalid_argument] if it does not fit. *)

val bulk_header : entries:bool -> int -> bytes -> pos:int -> int
(** [bulk_header ~entries len b ~pos]: the header of an [R_entries]
    ([entries]) or [R_data] result of [len] bytes at [pos] of [b]; the
    result's length. The server fills the [len] bytes from
    [pos + bulk_pos] straight from its store. *)

val bulk_pos : int

val result_at : Cluster.Address_space.t -> addr:int -> result
(** The result encoded at [addr], decoded where it landed: the bytes of
    [R_data], [R_entries] and [R_link] are copied once, into the
    result's own, and every other field is read as a word. *)

val result_code : result -> int

(** {1 Costs} *)

val procedure_cost : Cluster.Costs.t -> op -> Sim.Time.t
(** The server CPU cost of executing this operation with warm caches —
    the paper's measured Ultrix NFS procedure times. *)

val write_cost : Cluster.Costs.t -> int -> Sim.Time.t
(** {!procedure_cost} of a Write of that many bytes. *)
