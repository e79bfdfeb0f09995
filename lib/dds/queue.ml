(* The distributed MPMC ticket queue.

   Layout: [head word @0][tail word @4][capacity 8-byte slots from @8,
   each [flag word][value word]].  Tickets never wrap: capacity bounds
   the queue's lifetime enqueue count, which keeps every slot
   single-writer.

   DX enqueue claims a ticket by CASing the tail word to the client's
   unique negative brand and releases it with a CAS back to ticket+1,
   then deposits [1, value] into the ticket's slot with one atomic
   8-byte WRITE (flag and value travel in the same frame, so no torn
   slot is ever observable).  Branding is what survives lost CAS
   replies (§3.7): a policy-retried claim that finds its own brand as
   the witness knows the claim landed, and a failed release CAS proves
   an earlier lost-reply release landed — a plain t -> t+1 counter CAS
   can prove neither, and a plain WRITE release could be replayed late
   and roll the counter back.  DX dequeue claims the head ticket the
   same way and then polls the slot's flag word: head < tail proves
   some enqueuer owns the ticket, so the deposit is coming.  The RPC
   service runs the same state machine locally and answers "not ready"
   for a branded counter or a claimed-but-undeposited head slot rather
   than blocking the interrupt handler.

   Words are ints inside — the 32 bits, sign-extended — and values
   become int32s only at the client-facing operations. *)

let rpc_id = 0xC1
let slot_bytes = 8
let header_bytes = 8
let slot_off ticket = header_bytes + (ticket * slot_bytes)

exception Full

type server = {
  home : Plane.home;
  cap : int;
  mutable brands : int;  (* the last claim brand handed to a client *)
}

(* A negative counter word is a DX client's claim brand: the release is
   coming, so the service answers "not ready" instead of mutating. *)

let local_enqueue { Plane.hspace; _ } ~cap value =
  let tl = Cluster.Address_space.read_word hspace ~addr:4 in
  if tl < 0 then `Not_ready
  else if tl >= cap then `Full
  else begin
    Cluster.Address_space.write_word hspace ~addr:(slot_off tl + 4) value;
    Cluster.Address_space.write_word hspace ~addr:(slot_off tl) 1;
    Cluster.Address_space.write_word hspace ~addr:4 (tl + 1);
    `Ok tl
  end

let local_dequeue { Plane.hspace; _ } =
  let h = Cluster.Address_space.read_word hspace ~addr:0 in
  let tl = Cluster.Address_space.read_word hspace ~addr:4 in
  if h < 0 || tl < 0 then `Not_ready
  else if h >= tl then `Empty
  else if Cluster.Address_space.read_word hspace ~addr:(slot_off h) = 0 then
    `Not_ready
  else begin
    let v = Cluster.Address_space.read_word hspace ~addr:(slot_off h + 4) in
    Cluster.Address_space.write_word hspace ~addr:0 (h + 1);
    `Ok (v, h)
  end

let word = Call.word
let set_word = Call.set_word

(* Write a reply: its status, value and ticket words. *)
let reply (r : Call.reply) st v tk =
  set_word r.buf 0 st;
  set_word r.buf 4 v;
  set_word r.buf 8 tk;
  r.len <- 12

let serve ~cap h ~src:_ body ~pos ~len ~reply:b =
  if len < 8 then (reply b 4 0 0; Sim.Time.zero)
  else begin
    let op = word body pos in
    let value = word body (pos + 4) in
    let null = (Cluster.Node.costs h.Plane.hnode).Cluster.Costs.proc_null in
    match op with
    | 1 ->
        (match local_enqueue h ~cap value with
        | `Ok ticket -> reply b 0 0 ticket
        | `Full -> reply b 2 0 0
        | `Not_ready -> reply b 3 0 0);
        Plane.charge h null
    | 2 ->
        (match local_dequeue h with
        | `Ok (v, ticket) -> reply b 0 v ticket
        | `Empty -> reply b 1 0 0
        | `Not_ready -> reply b 3 0 0);
        Plane.charge h null
    | _ -> reply b 4 0 0; Sim.Time.zero
  end

let server ~rmem ~amsg ~capacity () =
  if capacity <= 0 then invalid_arg "Dds.Queue.server: capacity must be positive";
  let home =
    Plane.home rmem amsg ~name:"dds.queue"
      ~len:(header_bytes + (capacity * slot_bytes))
      ~id:rpc_id (serve ~cap:capacity)
  in
  { home; cap = capacity; brands = 0 }

type t = {
  c : Plane.client;
  cap : int;
  brand : int;
  mutable dequeued : int; (* the value the last dequeue claimed *)
}

(* Claim brands must be unique across every client of a queue, so each
   queue hands them out, -1 first; -1 .. min_int is disjoint from every
   counter value the claim CAS could displace. *)
let client ~rmem ~amsg ~kind ?policy s =
  let plane = Plane.connect rmem ?policy s.home ~scratch:64 in
  s.brands <- s.brands - 1;
  {
    c = Plane.client amsg ~kind ~request:8 plane;
    cap = s.cap;
    brand = s.brands;
    dequeued = 0;
  }

let cas_losses t = t.c.cas_losses
let rpc_fallbacks t = t.c.rpc_fallbacks

(* DX path *)

let poll_interval = Sim.Time.us 2

(* Claim a ticket from the counter at [word]: CAS counter -> brand,
   then CAS brand -> ticket+1 to release.  Both CASes are loss-proof:
   a retried claim that sees its own brand as witness knows it landed,
   and a failed release proves an earlier lost-reply release landed
   (only we can displace our brand).  The ticket, or
   [Plane.exhausted] when the counter reached [bound], or
   [Plane.contended]. *)
let rec claim_ticket t ~word ~bound ~budget =
  let p = t.c.plane in
  let cur = Plane.read_word p ~soff:word in
  if cur < 0 then begin
    (* Another client's claim: its release is coming. *)
    Sim.Proc.wait poll_interval;
    claim_ticket t ~word ~bound ~budget
  end
  else if cur >= bound then Plane.exhausted
  else begin
    let witness = Plane.cas p ~doff:word ~old_value:cur ~new_value:t.brand in
    if witness = cur || witness = t.brand then begin
      ignore
        (Plane.cas p ~doff:word ~old_value:t.brand ~new_value:(cur + 1) : int);
      cur
    end
    else begin
      t.c.cas_losses <- t.c.cas_losses + 1;
      if budget <= 0 then Plane.contended
      else claim_ticket t ~word ~bound ~budget:(budget - 1)
    end
  end

(* The ticket, or [Plane.exhausted] (the queue is full) or
   [Plane.contended]. *)
let dx_enqueue t ~budget value _ =
  let ticket = claim_ticket t ~word:4 ~bound:t.cap ~budget in
  if ticket >= 0 then begin
    let b = Bytes.create slot_bytes in
    set_word b 0 1;
    set_word b 4 value;
    Plane.write t.c.plane ~off:(slot_off ticket) b
  end;
  ticket

let await_deposit t ticket =
  let p = t.c.plane in
  let rec spin tries =
    if tries > 200_000 then raise Rmem.Status.Timeout;
    Plane.read p ~soff:(slot_off ticket) ~len:slot_bytes;
    if Plane.word p ~off:0 = 0 then begin
      Sim.Proc.wait poll_interval;
      spin (tries + 1)
    end
    else Plane.word p ~off:4
  in
  spin 0

(* The ticket claimed, its value left in [t.dequeued]; or
   [Plane.exhausted] when the queue is empty, or [Plane.contended]. *)
let rec dx_try_dequeue t ~budget _ _ =
  (* One atomic 8-byte read of [head; tail]: h >= tl in a single frame
     is a true instant of emptiness. *)
  let p = t.c.plane in
  Plane.read p ~soff:0 ~len:8;
  let h = Plane.word p ~off:0 in
  let tl = Plane.word p ~off:4 in
  if h < 0 || tl < 0 then begin
    Sim.Proc.wait poll_interval;
    dx_try_dequeue t ~budget 0 0
  end
  else if h >= tl then Plane.exhausted
  else
    let ticket = claim_ticket t ~word:0 ~bound:tl ~budget in
    if ticket = Plane.exhausted then
      (* Head caught up with our tail snapshot: re-read the pair. *)
      dx_try_dequeue t ~budget 0 0
    else begin
      if ticket >= 0 then t.dequeued <- await_deposit t ticket;
      ticket
    end

(* RPC path, answering as the DX one: the reply's status word; its
   value and ticket words are read in place. *)

let rpc_op t ~op ~value =
  let c = t.c in
  set_word c.request 0 op;
  set_word c.request 4 value;
  if Plane.call c c.plane ~id:rpc_id < 12 then 4 else word c.reply 0

let rpc_enqueue t value _ =
  let rec go attempt =
    if attempt > 5000 then raise Rmem.Status.Timeout;
    match rpc_op t ~op:1 ~value with
    | 0 -> word t.c.reply 8
    | 2 -> Plane.exhausted
    | 3 ->
        (* A DX claim holds the tail; its release is coming. *)
        Sim.Proc.wait (Sim.Time.us 5);
        go (attempt + 1)
    | _ -> failwith "Dds.Queue: malformed enqueue reply"
  in
  go 0

let rpc_try_dequeue t _ _ =
  match rpc_op t ~op:2 ~value:0 with
  | 0 ->
      t.dequeued <- word t.c.reply 4;
      word t.c.reply 8
  | 1 | 3 ->
      (* Empty, or the head ticket's deposit is still in flight — the
         claiming enqueue has not committed, so "empty" linearizes. *)
      Plane.exhausted
  | _ -> failwith "Dds.Queue: malformed dequeue reply"

(* Client-facing operations.  The designated cell of a committed
   enqueue/dequeue is its ticket's value word; an observed-empty dequeue
   commits a read of the (always untouched-in-history) head word
   instead, so the pair stays balanced. *)

let enqueue t value =
  let value = Int32.to_int value in
  Plane.op_begin t.c;
  let ticket =
    Plane.phase t.c Plane.Dx_then_rpc ~dx:dx_enqueue ~rpc:rpc_enqueue t value 0
  in
  if ticket < 0 then raise Full;
  Plane.op_commit t.c ~word:(slot_off ticket + 4) ~read:false value;
  ticket

let try_dequeue t =
  Plane.op_begin t.c;
  let ticket =
    Plane.phase t.c Plane.Dx_then_rpc ~dx:dx_try_dequeue ~rpc:rpc_try_dequeue t
      0 0
  in
  if ticket >= 0 then begin
    Plane.op_commit t.c ~word:(slot_off ticket + 4) ~read:true t.dequeued;
    Some (Int32.of_int t.dequeued)
  end
  else begin
    Plane.op_commit t.c ~word:0 ~read:true 0;
    None
  end

let rec dequeue t =
  match try_dequeue t with
  | Some v -> v
  | None ->
      Sim.Proc.wait (Sim.Time.us 5);
      dequeue t

let flush t = Plane.flush t.c
