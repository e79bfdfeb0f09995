(** Hybrid-1, the paper's control transfer, and the one request-slot /
    reply-slot exchange of every control-transfer path: one WRITE with
    notification into the server's request slot, the server procedure
    run from that notification, and reply WRITEs into the caller's
    memory. A request is [[call tag 2][reply offset 2][argument]]; a reply
    slot is [[flag 4][len 4][payload]], the flag the call's tag + 1, and
    [len = 0] is an absent or refused answer. *)

type endpoint
(** A caller's ring of reply slots in its own memory, which its service
    exports, and its count of calls. A reply that lands after its call
    timed out carries that call's tag, so no later call takes it, even
    one that re-armed the same slot. *)

val endpoint :
  Remote_memory.t ->
  space:Cluster.Address_space.t ->
  base:int ->
  slots:int ->
  reply_bytes:int ->
  timeout:Sim.Time.t ->
  endpoint
(** [slots] reply slots of [reply_bytes] each at [base] of [space], 64 KB
    at most; a call gives up [timeout] after its request write returns. *)

val call :
  endpoint ->
  Descriptor.t ->
  slot_bytes:int ->
  ('a -> bytes -> int) ->
  'a ->
  (Cluster.Address_space.t -> addr:int -> len:int -> 'b) ->
  'b
(** [call ep req ~slot_bytes encode arg decode] arms the ring's next
    slot, has [encode arg request] write the argument from byte 4 of a
    request buffer of at least [slot_bytes] (holding whatever an earlier
    call left) and return the request's length, fills word 0 with the
    call's tag and the slot's offset, writes the request with notify at
    [my node * slot_bytes] of the request segment [req], polls the flag
    every 5 us until it holds the tag + 1, and decodes the reply where
    it landed: [len] payload bytes at [addr]. Raises {!Status.Timeout}
    at the deadline. The request buffer and the poll's condition are
    the endpoint's, one per call in flight, so a call allocates neither;
    [encode] should be a top-level function, which allocates nothing
    either. *)

type server
(** Where a server's replies go: its callers' reply slots. *)

type ticket
(** One request's requester and reply slot. *)

val server :
  Remote_memory.t ->
  reply_bytes:int ->
  reply_to:(Atm.Addr.t -> Descriptor.t) ->
  server
(** Replies into callers' slots of [reply_bytes], in the segment
    [reply_to requester] imports, once per requester. *)

val serve : Segment.t -> slot_bytes:int -> (ticket -> int -> unit) -> unit
(** Install the request segment's signal handler: a request, in the
    [slot_bytes] slot of the node that sent it, runs [service ticket
    arg], [arg] the address of its argument (slot + 4). *)

val payload_pos : int
(** 8: where a reply's payload starts in its {!buffer}. *)

val buffer : server -> bytes
(** A reply buffer, the image of one reply slot ([reply_bytes] long, its
    contents whatever an earlier reply left): the server encodes its
    payload into it from {!payload_pos}, once, and hands it to {!reply}.
    Concurrent replies each get their own. *)

val reply : server -> ticket -> bytes -> len:int -> unit
(** Send the [len]-byte payload of a {!buffer} (0 for absent or refused)
    into the ticket's slot, flagged with its call's tag + 1, and take
    the buffer back. The header is written in front of the payload, in
    the same buffer. A slot that fits one burst frame is written whole,
    in one WRITE, past the payload zeroed; a larger one body first, then
    its header, so that its flag lands last. *)
