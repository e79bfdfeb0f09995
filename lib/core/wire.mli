(** Wire format of the remote-memory protocol.

    Every frame begins with a tag byte encoding the operation and the
    notify bit. A WRITE frame is exactly an 8-byte header followed by
    data, so one ATM cell carries 40 data bytes — the paper's figure.

    Data fields are {!view}s: {!encode} copies each once, into a frame
    of exactly the frame's size, and {!decode} returns views into the
    payload it was given instead of copying the data out. *)

type view = { buf : bytes; pos : int; len : int }
(** The [len] bytes of [buf] from [pos]. *)

val view : bytes -> view
(** The whole buffer. *)

type write_req = {
  seg : int;
  gen : Generation.t;
  off : int;
  notify : bool;
  swab : bool;  (** byte-swap the data words at the receiver (§3.6) *)
  data : view;
}

type read_req = {
  seg : int;
  gen : Generation.t;
  soff : int;
  count : int;
  reqid : int;
  notify : bool;
  swab : bool;
}

type read_reply = {
  status : Status.t;
  reqid : int;
  chunk_off : int;
  swab : bool;
  data : view;
}

(** CAS words travel as 32 bits and are carried as ints, sign-extended. *)
type cas_req = {
  seg : int;
  gen : Generation.t;
  doff : int;
  old_value : int;
  new_value : int;
  reqid : int;
  notify : bool;
}

type cas_reply = { status : Status.t; reqid : int; witness : int }

type write_nack = {
  status : Status.t;
  seg : int;
  gen : Generation.t;
  off : int;
  count : int;
}
(** Negative acknowledgement for a rejected WRITE. Successful writes stay
    unacknowledged (the paper's model); a destination that must {e drop}
    a write — stale generation, revoked segment, rights, bounds, write
    inhibit — reports the drop back so the issuer can surface it instead
    of silently losing data. *)

type burst_item = { off : int; data : view }

type write_burst = {
  seg : int;
  gen : Generation.t;
  notify : bool;
  swab : bool;
  items : burst_item list;
}
(** A scatter-gather WRITE: several (offset, data) extents of one
    segment framed {e once} at the AAL layer. One frame means one trap,
    one FIFO setup and one checksum for the whole burst, which is where
    the pipeline engine's batching win comes from. The notify bit covers
    the burst as a whole — at most one notification per frame. *)

type message =
  | Write of write_req
  | Read of read_req
  | Read_reply of read_reply
  | Cas of cas_req
  | Cas_reply of cas_reply
  | Write_nack of write_nack
  | Write_burst of write_burst

exception Bad_message of string

val tags : int list
(** All protocol tag bytes to claim from the node demultiplexer. *)

val header_bytes : int
(** 8 — the request header carried in every cell group, and the READ
    reply header ahead of its data. *)

val data_bytes_per_cell : int
(** 40 — data bytes alongside the header in one 48-byte cell payload. *)

val data_cells : int -> int
(** Cells needed to carry [len] data bytes at 40 per cell (min 1). *)

val burst_header_bytes : int
(** 6 — tag, segment, generation and extent count of a burst frame. *)

val burst_item_header_bytes : int
(** 8 — the (offset, length) descriptor ahead of each extent's data. *)

val burst_payload_bytes : burst_item list -> int
(** Total data bytes carried by the extents, excluding framing. *)

val burst_frame_bytes : burst_item list -> int
(** Full frame size of a burst: header + per-extent descriptors + data. *)

val encode : message -> bytes
(** A fresh frame of exactly the message's encoded size. The reference
    encoder: the frames below are built in place, without a message
    record, and are identical to its output. *)

(** {1 Frames built in place}

    Each builder takes a frame of its final size from the network's
    pool and sets its fields in {!encode}'s layout. The receiving node
    releases the frame to the pool once its handler returns. *)

val write_frame :
  Atm.Frame.pool -> seg:int -> gen:Generation.t -> off:int -> notify:bool ->
  swab:bool -> bytes -> pos:int -> len:int -> Atm.Frame.t
(** The WRITE frame carrying [len] bytes of the buffer from [pos]. *)

val read_frame :
  Atm.Frame.pool -> seg:int -> gen:Generation.t -> soff:int -> count:int ->
  reqid:int -> notify:bool -> swab:bool -> Atm.Frame.t
(** A READ request frame. *)

val cas_frame :
  Atm.Frame.pool -> seg:int -> gen:Generation.t -> doff:int ->
  old_value:int -> new_value:int -> reqid:int -> notify:bool -> Atm.Frame.t
(** A CAS request frame. *)

val cas_reply_frame :
  Atm.Frame.pool -> status:Status.t -> reqid:int -> witness:int -> Atm.Frame.t
(** A CAS reply frame. *)

val read_reply_frame :
  Atm.Frame.pool -> reqid:int -> chunk_off:int -> swab:bool -> len:int ->
  Atm.Frame.t
(** An [Ok] READ reply frame of [len] data bytes, identical to {!encode}'s
    once the caller has filled the data, which is left unwritten at
    [header_bytes]: the server copies segment memory straight in. *)

type extent = { off : int; len : int; writes : (int * bytes) list }
(** One extent of a burst as its issuer stages it: [len] bytes at
    segment offset [off], made of [writes], each a segment offset and
    the bytes written there, newest first. The writes lie inside the
    extent and cover all of it. *)

val write_burst_frame :
  Atm.Frame.pool -> seg:int -> gen:Generation.t -> notify:bool -> swab:bool ->
  extent list -> Atm.Frame.t
(** The [Write_burst] frame of the extents, in list order. Each extent's
    writes are copied into it oldest first, once each, so where they
    overlap the newest wins. Raises [Invalid_argument] if a write lies
    outside its extent. *)

(** What to do with each kind of received frame: one function per
    message kind, given two context values passed through from
    {!dispatch} and the frame's fields. Data fields arrive as the
    payload with the data's position and length in it. *)
type ('a, 'b, 'r) handlers = {
  write :
    'a -> 'b -> seg:int -> gen:Generation.t -> off:int -> notify:bool ->
    swab:bool -> bytes -> pos:int -> len:int -> 'r;
  read :
    'a -> 'b -> seg:int -> gen:Generation.t -> soff:int -> count:int ->
    reqid:int -> notify:bool -> swab:bool -> 'r;
  read_reply :
    'a -> 'b -> status:Status.t -> reqid:int -> chunk_off:int -> swab:bool ->
    bytes -> pos:int -> len:int -> 'r;
  cas :
    'a -> 'b -> seg:int -> gen:Generation.t -> doff:int -> old_value:int ->
    new_value:int -> reqid:int -> notify:bool -> 'r;
  cas_reply : 'a -> 'b -> status:Status.t -> reqid:int -> witness:int -> 'r;
  write_nack :
    'a -> 'b -> status:Status.t -> seg:int -> gen:Generation.t -> off:int ->
    count:int -> 'r;
  write_burst :
    'a -> 'b -> seg:int -> gen:Generation.t -> notify:bool -> swab:bool ->
    burst_item list -> 'r;
}

val dispatch : ('a, 'b, 'r) handlers -> 'a -> 'b -> bytes -> 'r
(** [dispatch h a b payload] reads the frame's tag and fields in place
    and calls the handler for its kind with them: no message record is
    built. Raises {!Bad_message} or [Atm.Codec.Truncated] on malformed
    input, before any handler runs. *)

val decode : bytes -> message
(** {!dispatch} with handlers that build the message: the reference
    decoder. Data fields are views into the argument, which must not
    change while they are in use. Raises as {!dispatch} does. *)

val swap_words : ?pos:int -> ?len:int -> bytes -> bytes
(** Byte-swap each aligned 32-bit word of [len] bytes from [pos]
    (default: the whole buffer) into a fresh buffer; a trailing partial
    word is left alone. The §3.6 heterogeneity conversion, applied by
    the receiving side when a request's swab bit is set. *)
