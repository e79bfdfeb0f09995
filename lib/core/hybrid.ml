(* Hybrid-1 (see hybrid.mli).  A reply slot is [flag 4][len 4][payload];
   a call arms its slot's flag to [pending], and a reply sets it to the
   call's tag + 1 in the WRITE that lands last.  Word 0 of a request is
   [tag 16][reply offset 16]: the tag counts an endpoint's calls, so a
   reply that lands after its call timed out cannot satisfy a later call
   that re-armed its slot. *)

let pending = 0
let header_bytes = 8
let offset_bits = 16
let tag_mask = 0x7FFF

(* One call in flight: its request buffer and its spin's condition,
   whose closure is built with the record.  An endpoint keeps its idle
   calls on a stack linked through [below], so concurrent calls each
   have their own and a call allocates neither. *)
type pending = {
  mutable request : bytes;
  mutable flag : int;  (* the address of the call's slot's flag *)
  mutable expect : int;  (* the call's tag + 1 *)
  mutable below : pending;  (* the next idle call, or the stack's bottom *)
  ready : unit -> bool;
}

type endpoint = {
  rmem : Remote_memory.t;
  node : Cluster.Node.t;
  space : Cluster.Address_space.t;
  base : int;
  slots : int;
  reply_bytes : int;
  timeout : Sim.Time.t;
  mutable next : int;
  mutable calls : int;
  mutable idle : pending;  (* the top idle call, or [bottom] *)
  bottom : pending;
}

let fresh space =
  let rec p =
    { request = Bytes.empty; flag = 0; expect = 0; below = p;
      ready = (fun () -> Cluster.Address_space.read_word space ~addr:p.flag = p.expect) }
  in
  p

let endpoint rmem ~space ~base ~slots ~reply_bytes ~timeout =
  if slots * reply_bytes > 1 lsl offset_bits then
    invalid_arg "Hybrid.endpoint: ring past 64 KB";
  let bottom = fresh space in
  { rmem; node = Remote_memory.node rmem; space; base; slots; reply_bytes;
    timeout; next = 0; calls = 0; idle = bottom; bottom }

(* An idle call whose request buffer holds [slot_bytes]. *)
let take ep ~slot_bytes =
  let p = ep.idle in
  let p =
    if p == ep.bottom then fresh ep.space
    else begin
      ep.idle <- p.below;
      p
    end
  in
  if Bytes.length p.request < slot_bytes then p.request <- Bytes.create slot_bytes;
  p

let call ep desc ~slot_bytes encode arg decode =
  let off = ep.next * ep.reply_bytes and tag = ep.calls land tag_mask in
  ep.next <- (ep.next + 1) mod ep.slots;
  ep.calls <- ep.calls + 1;
  let p = take ep ~slot_bytes and space = ep.space in
  p.flag <- ep.base + off;
  p.expect <- tag + 1;
  Cluster.Address_space.write_word space ~addr:p.flag pending;
  let len = encode arg p.request in
  Bytes.set_int32_le p.request 0 (Int32.of_int ((tag lsl offset_bits) lor off));
  Remote_memory.write_sub ep.rmem desc
    ~off:(Atm.Addr.to_int (Cluster.Node.addr ep.node) * slot_bytes)
    ~notify:true p.request ~pos:0 ~len;
  let deadline =
    Sim.Time.add (Sim.Engine.now (Cluster.Node.engine ep.node)) ep.timeout
  in
  let arrived = Sim.Proc.spin ~every:(Sim.Time.us 5) ~deadline p.ready in
  let flag = p.flag in
  p.below <- ep.idle;
  ep.idle <- p;
  if arrived then
    decode space ~addr:(flag + header_bytes)
      ~len:(Cluster.Address_space.read_word space ~addr:(flag + 4))
  else raise Status.Timeout

(* A server's idle reply buffers, each a reply slot's image, on a stack
   of [idles]: concurrent replies each fill their own, and a reply
   allocates none. *)
type server = {
  srmem : Remote_memory.t;
  slot : int;  (* bytes of a caller's reply slot *)
  whole : bool;  (* a reply slot fits one burst frame *)
  reply_to : Atm.Addr.t -> Descriptor.t;
  replies : Descriptor.t Sim.Int_table.t;  (* by requester *)
  mutable idle : bytes array;
  mutable idles : int;
}

(* The requester's address above its request's word 0. *)
type ticket = int

let server rmem ~reply_bytes ~reply_to =
  let c = Cluster.Node.costs (Remote_memory.node rmem) in
  { srmem = rmem; slot = reply_bytes;
    whole = reply_bytes <= c.Cluster.Costs.burst_cells * Wire.data_bytes_per_cell;
    reply_to; replies = Sim.Int_table.create 8; idle = [||]; idles = 0 }

(* The notify bit rides on a request's last frame, so its slot comes
   from the sender, not from the notified offset. *)
let serve segment ~slot_bytes service =
  let space = Segment.space segment and base = Segment.base segment in
  Notification.set_signal_handler (Segment.notification segment)
    (Some
       (fun (r : Notification.record) ->
         let requester = Atm.Addr.to_int r.src in
         let slot = base + (requester * slot_bytes) in
         let off = Cluster.Address_space.read_word space ~addr:slot in
         service ((requester lsl 32) lor (off land 0xFFFFFFFF)) (slot + 4)))

(* [make env key], built once per key. *)
let memo table env key make =
  match Sim.Int_table.find table key with
  | v -> v
  | exception Not_found ->
      let v = make env key in
      Sim.Int_table.replace table key v;
      v

let import s requester = s.reply_to (Atm.Addr.of_int requester)

let payload_pos = header_bytes

let buffer s =
  if s.idles = 0 then Bytes.create s.slot
  else begin
    s.idles <- s.idles - 1;
    s.idle.(s.idles)
  end

let release s b =
  if s.idles = Array.length s.idle then begin
    let grown = Array.make (Int.max 4 (2 * s.idles)) b in
    Array.blit s.idle 0 grown 0 s.idles;
    s.idle <- grown
  end;
  s.idle.(s.idles) <- b;
  s.idles <- s.idles + 1

(* The header goes in front of the payload, in the same buffer: a whole
   slot is written in one WRITE, the rest zeroed; a larger one body
   first, then its header, so that its flag lands last.  Every frame is
   built before a write returns, so the buffer is free again after. *)
let reply s ticket b ~len =
  let desc = memo s.replies s (ticket lsr 32) import in
  let off = ticket land ((1 lsl offset_bits) - 1) in
  Bytes.set_int32_le b 0
    (Int32.of_int (((ticket lsr offset_bits) land tag_mask) + 1));
  Bytes.set_int32_le b 4 (Int32.of_int len);
  if s.whole then begin
    Bytes.fill b (header_bytes + len) (s.slot - header_bytes - len) '\000';
    Remote_memory.write s.srmem desc ~off b
  end
  else begin
    Remote_memory.write_sub s.srmem desc ~off:(off + header_bytes) b
      ~pos:header_bytes ~len;
    Remote_memory.write_sub s.srmem desc ~off b ~pos:0 ~len:header_bytes
  end;
  release s b
