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
  snode : Cluster.Node.t;
  sspace : Cluster.Address_space.t;
  cap : int;
  segment : Rmem.Segment.t;
}

(* A negative counter word is a DX client's claim brand: the release is
   coming, so the service answers "not ready" instead of mutating. *)

let local_enqueue s value =
  let tl = Cluster.Address_space.read_word s.sspace ~addr:4 in
  if tl < 0 then `Not_ready
  else if tl >= s.cap then `Full
  else begin
    Cluster.Address_space.write_word s.sspace ~addr:(slot_off tl + 4) value;
    Cluster.Address_space.write_word s.sspace ~addr:(slot_off tl) 1;
    Cluster.Address_space.write_word s.sspace ~addr:4 (tl + 1);
    `Ok tl
  end

let local_dequeue s =
  let h = Cluster.Address_space.read_word s.sspace ~addr:0 in
  let tl = Cluster.Address_space.read_word s.sspace ~addr:4 in
  if h < 0 || tl < 0 then `Not_ready
  else if h >= tl then `Empty
  else if Cluster.Address_space.read_word s.sspace ~addr:(slot_off h) = 0 then
    `Not_ready
  else begin
    let v = Cluster.Address_space.read_word s.sspace ~addr:(slot_off h + 4) in
    Cluster.Address_space.write_word s.sspace ~addr:0 (h + 1);
    `Ok (v, h)
  end

let word = Call.word
let set_word = Call.set_word

(* Write a reply: its status, value and ticket words. *)
let reply b st v tk =
  set_word b 0 st;
  set_word b 4 v;
  set_word b 8 tk;
  12

let charge node =
  let c = Cluster.Node.costs node in
  Cluster.Cpu.use (Cluster.Node.cpu node) ~category:Cluster.Cpu.cat_procedure
    (Sim.Time.add c.Cluster.Costs.rpc_stub c.Cluster.Costs.proc_null)

let server ~rmem ~amsg ~capacity () =
  if capacity <= 0 then invalid_arg "Dds.Queue.server: capacity must be positive";
  let snode = Rmem.Remote_memory.node rmem in
  let sspace = Cluster.Node.new_address_space snode in
  let segment =
    Rmem.Remote_memory.export rmem ~space:sspace ~base:0
      ~len:(header_bytes + (capacity * slot_bytes))
      ~rights:Rmem.Rights.all ~name:"dds.queue" ()
  in
  let s = { snode; sspace; cap = capacity; segment } in
  Call.serve amsg ~id:rpc_id (fun ~src:_ body ~pos ~len ~reply:b ->
      if len < 8 then reply b 4 0 0
      else begin
        let op = word body pos in
        let value = word body (pos + 4) in
        match op with
        | 1 -> (
            let r = local_enqueue s value in
            charge snode;
            match r with
            | `Ok ticket -> reply b 0 0 ticket
            | `Full -> reply b 2 0 0
            | `Not_ready -> reply b 3 0 0)
        | 2 -> (
            let r = local_dequeue s in
            charge snode;
            match r with
            | `Ok (v, ticket) -> reply b 0 v ticket
            | `Empty -> reply b 1 0 0
            | `Not_ready -> reply b 3 0 0)
        | _ -> reply b 4 0 0
      end);
  s

let server_key s =
  ( Atm.Addr.to_int (Cluster.Node.addr s.snode),
    Rmem.Segment.id s.segment,
    Rmem.Generation.to_int (Rmem.Segment.generation s.segment) )

type t = {
  kind : Kind.t;
  plane : Plane.t;
  ep : Call.endpoint;
  home : Atm.Addr.t;
  cap : int;
  brand : int;
  hkey : int * int * int;
  request : bytes; (* the RPC path's, rewritten per call *)
  reply : bytes;
  mutable dequeued : int; (* the value the last dequeue claimed *)
  mutable cas_losses : int;
  mutable rpc_fallbacks : int;
}

(* Claim brands must be unique across every client of a queue, so they
   come from one runtime-global counter; -1 .. min_int is disjoint from
   every counter value the claim CAS could displace. *)
let next_brand = ref 0

let client ~rmem ~amsg ~kind ?policy s =
  let home = Cluster.Node.addr s.snode in
  let plane =
    Plane.connect rmem ?policy ~remote:home
      ~segment_id:(Rmem.Segment.id s.segment)
      ~generation:(Rmem.Segment.generation s.segment)
      ~size:(header_bytes + (s.cap * slot_bytes))
      ~scratch:64 ()
  in
  {
    kind;
    plane;
    ep = Call.endpoint amsg;
    home;
    cap = s.cap;
    brand =
      (incr next_brand;
       - !next_brand);
    hkey = server_key s;
    request = Bytes.create 8;
    reply = Bytes.create 12;
    dequeued = 0;
    cas_losses = 0;
    rpc_fallbacks = 0;
  }

let cas_losses t = t.cas_losses
let rpc_fallbacks t = t.rpc_fallbacks

let op_begin t = Plane.begin_op t.plane.Plane.node

(* The designated cell of a committed enqueue/dequeue is its ticket's
   value word; an observed-empty dequeue commits a read of the (always
   untouched-in-history) head word instead, so the pair stays
   balanced. *)
let op_commit t ~word ~read v =
  Plane.commit t.plane.Plane.node ~cell:t.hkey ~word ~read v

(* DX fast path *)

let poll_interval = Sim.Time.us 2

(* What a claim returns instead of a ticket: the counter reached its
   bound, or the CAS budget ran out. *)
let exhausted = -1
let contended = -2

(* Claim a ticket from the counter at [word]: CAS counter -> brand,
   then CAS brand -> ticket+1 to release.  Both CASes are loss-proof:
   a retried claim that sees its own brand as witness knows it landed,
   and a failed release proves an earlier lost-reply release landed
   (only we can displace our brand). *)
let rec claim_ticket t ~word ~bound ~budget =
  let cur = Plane.read_word t.plane ~soff:word in
  if cur < 0 then begin
    (* Another client's claim: its release is coming. *)
    Sim.Proc.wait poll_interval;
    claim_ticket t ~word ~bound ~budget
  end
  else if cur >= bound then exhausted
  else begin
    let witness =
      Plane.cas t.plane ~doff:word ~old_value:cur ~new_value:t.brand
    in
    if witness = cur || witness = t.brand then begin
      ignore
        (Plane.cas t.plane ~doff:word ~old_value:t.brand ~new_value:(cur + 1)
          : int);
      cur
    end
    else begin
      t.cas_losses <- t.cas_losses + 1;
      if budget <= 0 then contended
      else claim_ticket t ~word ~bound ~budget:(budget - 1)
    end
  end

(* The ticket, or [exhausted] (the queue is full) or [contended]. *)
let dx_enqueue t ~budget value =
  let ticket = claim_ticket t ~word:4 ~bound:t.cap ~budget in
  if ticket >= 0 then begin
    let b = Bytes.create slot_bytes in
    set_word b 0 1;
    set_word b 4 value;
    Plane.write t.plane ~off:(slot_off ticket) b
  end;
  ticket

let await_deposit t ticket =
  let rec spin tries =
    if tries > 200_000 then raise Rmem.Status.Timeout;
    Plane.read t.plane ~soff:(slot_off ticket) ~len:slot_bytes;
    if Plane.word t.plane ~off:0 = 0 then begin
      Sim.Proc.wait poll_interval;
      spin (tries + 1)
    end
    else Plane.word t.plane ~off:4
  in
  spin 0

(* The ticket claimed, its value left in [t.dequeued]; or [exhausted]
   when the queue is empty, or [contended]. *)
let rec dx_try_dequeue t ~budget =
  (* One atomic 8-byte read of [head; tail]: h >= tl in a single frame
     is a true instant of emptiness. *)
  Plane.read t.plane ~soff:0 ~len:8;
  let h = Plane.word t.plane ~off:0 in
  let tl = Plane.word t.plane ~off:4 in
  if h < 0 || tl < 0 then begin
    Sim.Proc.wait poll_interval;
    dx_try_dequeue t ~budget
  end
  else if h >= tl then exhausted
  else
    let ticket = claim_ticket t ~word:0 ~bound:tl ~budget in
    if ticket = exhausted then
      (* Head caught up with our tail snapshot: re-read the pair. *)
      dx_try_dequeue t ~budget
    else begin
      if ticket >= 0 then t.dequeued <- await_deposit t ticket;
      ticket
    end

(* RPC path: the reply's status word; its value and ticket words are
   read in place. *)

let rpc_op t ~op ~value =
  set_word t.request 0 op;
  set_word t.request 4 value;
  if Call.call t.ep ~dst:t.home ~id:rpc_id t.request ~reply:t.reply < 12 then 4
  else word t.reply 0

let rpc_enqueue t value =
  let rec go attempt =
    if attempt > 5000 then raise Rmem.Status.Timeout;
    match rpc_op t ~op:1 ~value with
    | 0 -> word t.reply 8
    | 2 -> raise Full
    | 3 ->
        (* A DX claim holds the tail; its release is coming. *)
        Sim.Proc.wait (Sim.Time.us 5);
        go (attempt + 1)
    | _ -> failwith "Dds.Queue: malformed enqueue reply"
  in
  go 0

(* As [dx_try_dequeue], never [contended]. *)
let rpc_try_dequeue t =
  match rpc_op t ~op:2 ~value:0 with
  | 0 ->
      t.dequeued <- word t.reply 4;
      word t.reply 8
  | 1 | 3 ->
      (* Empty, or the head ticket's deposit is still in flight — the
         claiming enqueue has not committed, so "empty" linearizes. *)
      exhausted
  | _ -> failwith "Dds.Queue: malformed dequeue reply"

(* Client-facing operations *)

let hybrid_budget = 2

let enqueue t value =
  let value = Int32.to_int value in
  op_begin t;
  let ticket =
    match t.kind with
    | Kind.Dx ->
        let ticket = dx_enqueue t ~budget:max_int value in
        if ticket < 0 then raise Full;
        ticket
    | Kind.Rpc -> rpc_enqueue t value
    | Kind.Hybrid ->
        let ticket = dx_enqueue t ~budget:hybrid_budget value in
        if ticket = exhausted then raise Full
        else if ticket = contended then begin
          t.rpc_fallbacks <- t.rpc_fallbacks + 1;
          rpc_enqueue t value
        end
        else ticket
  in
  op_commit t ~word:(slot_off ticket + 4) ~read:false value;
  ticket

let try_dequeue t =
  op_begin t;
  let ticket =
    match t.kind with
    | Kind.Dx -> dx_try_dequeue t ~budget:max_int
    | Kind.Rpc -> rpc_try_dequeue t
    | Kind.Hybrid ->
        let ticket = dx_try_dequeue t ~budget:hybrid_budget in
        if ticket = contended then begin
          t.rpc_fallbacks <- t.rpc_fallbacks + 1;
          rpc_try_dequeue t
        end
        else ticket
  in
  if ticket >= 0 then begin
    op_commit t ~word:(slot_off ticket + 4) ~read:true t.dequeued;
    Some (Int32.of_int t.dequeued)
  end
  else begin
    op_commit t ~word:0 ~read:true 0;
    None
  end

let rec dequeue t =
  match try_dequeue t with
  | Some v -> v
  | None ->
      Sim.Proc.wait (Sim.Time.us 5);
      dequeue t

(* Bracketed like any other operation so the fence's physical READ of the
   header cannot leak into a monitored history unscoped. *)
let flush t =
  match t.kind with
  | Kind.Rpc -> ()
  | Kind.Dx | Kind.Hybrid ->
      op_begin t;
      Plane.fence t.plane;
      Plane.sync t.plane.Plane.node ~cell:t.hkey
