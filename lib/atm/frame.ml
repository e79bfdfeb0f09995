(* Network frames: the unit handed to and received from a NIC.

   A frame's payload is segmented into ATM cells for transmission; see
   {!Aal} for the cell arithmetic.

   [ctx] models a trace id riding in a reserved header field: it travels
   with the frame but contributes nothing to [length], so attaching a
   tracer cannot perturb wire timing.

   [checksum] models the AAL5 trailer CRC: computed over the payload
   when the frame is formatted for transmission and carried unchanged.
   A fault plane that corrupts the payload in flight leaves the stored
   checksum stale, so the receiving NIC detects the damage and drops the
   frame as a receive error instead of delivering bad data.

   [home] is the frame's ownership word: the pool a live pooled frame
   goes back to when it is released, or [nobody] for a frame that is
   never recycled (one built with [make], one pinned, or one already
   released).  A pool keeps its free frames, record and payload
   together, on one stack per exact payload length.  The stacks are
   found by length through a table that hashes a length as itself: it
   is never iterated, so its bucket order reaches nothing. *)

module By_length = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash n = n
end)

type t = {
  mutable src : Addr.t;
  mutable dst : Addr.t;
  payload : bytes;
  mutable ctx : Obs.Ctx.t option;
  mutable checksum : int;
  mutable home : pool;
}

and pool = {
  free : stack By_length.t; (* by payload length *)
  mutable outstanding : int; (* taken, neither released nor pinned *)
  mutable created : int;
}

and stack = { mutable frames : t array; mutable depth : int }

let pool () = { free = By_length.create 16; outstanding = 0; created = 0 }

(* The home of every frame no pool may take back. *)
let nobody = pool ()

let make ?ctx ~src ~dst payload =
  { src; dst; payload; ctx; checksum = Aal.checksum payload; home = nobody }

let vacant = make ~src:(Addr.of_int 0) ~dst:(Addr.of_int 0) Bytes.empty

let src t = t.src
let dst t = t.dst
let payload t = t.payload
let ctx t = t.ctx
let length t = Bytes.length t.payload

let stamp t ~src ~dst ctx =
  t.src <- src;
  t.dst <- dst;
  t.ctx <- ctx;
  t.checksum <- Aal.checksum t.payload

let stack pool len =
  match By_length.find pool.free len with
  | s -> s
  | exception Not_found ->
      let s = { frames = Array.make 4 vacant; depth = 0 } in
      By_length.replace pool.free len s;
      s

(* A popped slot keeps its frame: the frame is live, and overwriting the
   slot would cost a write barrier on every take. *)
let take pool len =
  let s = stack pool len in
  pool.outstanding <- pool.outstanding + 1;
  if s.depth = 0 then begin
    pool.created <- pool.created + 1;
    { vacant with payload = Bytes.create len; home = pool }
  end
  else begin
    s.depth <- s.depth - 1;
    let t = s.frames.(s.depth) in
    t.home <- pool;
    t
  end

let release t =
  let pool = t.home in
  if pool != nobody then begin
    t.home <- nobody;
    t.ctx <- None;
    pool.outstanding <- pool.outstanding - 1;
    let s = stack pool (Bytes.length t.payload) in
    if s.depth = Array.length s.frames then begin
      let grown = Array.make (2 * s.depth) vacant in
      Array.blit s.frames 0 grown 0 s.depth;
      s.frames <- grown
    end;
    s.frames.(s.depth) <- t;
    s.depth <- s.depth + 1
  end

let pin t =
  let pool = t.home in
  if pool != nobody then begin
    t.home <- nobody;
    pool.outstanding <- pool.outstanding - 1
  end

(* ---------------- Rings ---------------- *)

(* A FIFO of frames in a circular array whose capacity stays a power of
   two, doubled (in FIFO order) when full.  A popped slot gets [vacant]
   back, so the ring keeps no frame it has handed on alive. *)
type ring = { mutable slots : t array; mutable head : int; mutable length : int }

let ring () = { slots = Array.make 8 vacant; head = 0; length = 0 }
let ring_length r = r.length

let ring_push r frame =
  let capacity = Array.length r.slots in
  if r.length = capacity then begin
    let grown = Array.make (2 * capacity) vacant in
    for i = 0 to capacity - 1 do
      grown.(i) <- r.slots.((r.head + i) land (capacity - 1))
    done;
    r.slots <- grown;
    r.head <- 0
  end;
  r.slots.((r.head + r.length) land (Array.length r.slots - 1)) <- frame;
  r.length <- r.length + 1

let ring_pop r =
  if r.length = 0 then invalid_arg "Frame.ring_pop: empty ring";
  let frame = r.slots.(r.head) in
  r.slots.(r.head) <- vacant;
  r.head <- (r.head + 1) land (Array.length r.slots - 1);
  r.length <- r.length - 1;
  frame

let outstanding pool = pool.outstanding
let created pool = pool.created

let intact t = t.checksum = Aal.checksum t.payload

(* In-flight corruption: flip one payload byte (chosen by the fault
   plane) without refreshing the stored checksum. An empty payload has
   no byte to flip, so the checksum itself is damaged instead. *)
let corrupted ~byte t =
  if Bytes.length t.payload = 0 then
    { t with checksum = t.checksum lxor 1; home = nobody }
  else begin
    let payload = Bytes.copy t.payload in
    let i = byte mod Bytes.length payload in
    Bytes.set payload i (Char.chr (Char.code (Bytes.get payload i) lxor 0xFF));
    { t with payload; home = nobody }
  end
