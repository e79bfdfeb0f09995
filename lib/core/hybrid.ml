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
}

let endpoint rmem ~space ~base ~slots ~reply_bytes ~timeout =
  if slots * reply_bytes > 1 lsl offset_bits then
    invalid_arg "Hybrid.endpoint: ring past 64 KB";
  { rmem; node = Remote_memory.node rmem; space; base; slots; reply_bytes;
    timeout; next = 0; calls = 0 }

let call ep desc ~slot_bytes request decode =
  let off = ep.next * ep.reply_bytes and tag = ep.calls land tag_mask in
  ep.next <- (ep.next + 1) mod ep.slots;
  ep.calls <- ep.calls + 1;
  let flag = ep.base + off and space = ep.space in
  Cluster.Address_space.write_word space ~addr:flag pending;
  Bytes.set_int32_le request 0 (Int32.of_int ((tag lsl offset_bits) lor off));
  Remote_memory.write ep.rmem desc
    ~off:(Atm.Addr.to_int (Cluster.Node.addr ep.node) * slot_bytes)
    ~notify:true request;
  let deadline =
    Sim.Time.add (Sim.Engine.now (Cluster.Node.engine ep.node)) ep.timeout
  in
  if
    Sim.Proc.spin ~every:(Sim.Time.us 5) ~deadline (fun () ->
        Cluster.Address_space.read_word space ~addr:flag = tag + 1)
  then
    decode space ~addr:(flag + header_bytes)
      ~len:(Cluster.Address_space.read_word space ~addr:(flag + 4))
  else raise Status.Timeout

type server = {
  srmem : Remote_memory.t;
  slot : int;  (* bytes of a caller's reply slot *)
  whole : bool;  (* a reply slot fits one burst frame *)
  reply_to : Atm.Addr.t -> Descriptor.t;
  replies : Descriptor.t Sim.Int_table.t;  (* by requester *)
}

(* The requester's address above its request's word 0. *)
type ticket = int

let server rmem ~reply_bytes ~reply_to =
  let c = Cluster.Node.costs (Remote_memory.node rmem) in
  { srmem = rmem; slot = reply_bytes;
    whole = reply_bytes <= c.Cluster.Costs.burst_cells * Wire.data_bytes_per_cell;
    reply_to; replies = Sim.Int_table.create 8 }

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

(* The call's tag + 1 and the payload length, at the head of [b]. *)
let header b ticket len =
  Bytes.set_int32_le b 0
    (Int32.of_int (((ticket lsr offset_bits) land tag_mask) + 1));
  Bytes.set_int32_le b 4 (Int32.of_int len)

let reply s ticket payload =
  let desc = memo s.replies s (ticket lsr 32) import in
  let off = ticket land ((1 lsl offset_bits) - 1) and len = Bytes.length payload in
  if s.whole then begin
    let slot = Bytes.make s.slot '\000' in
    header slot ticket len;
    Bytes.blit payload 0 slot header_bytes len;
    Remote_memory.write s.srmem desc ~off slot
  end
  else begin
    let h = Bytes.create header_bytes in
    header h ticket len;
    Remote_memory.write s.srmem desc ~off:(off + header_bytes) payload;
    Remote_memory.write s.srmem desc ~off h
  end
