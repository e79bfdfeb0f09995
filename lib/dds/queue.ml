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
   than blocking the interrupt handler. *)

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
    Cluster.Address_space.write_word s.sspace ~addr:(slot_off tl + 4)
      (Int32.to_int value);
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
    `Ok (Int32.of_int v, h)
  end

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
  Call.serve amsg ~id:rpc_id (fun ~src:_ body ->
      let reply st v tk =
        let b = Bytes.create 12 in
        Bytes.set_int32_le b 0 st;
        Bytes.set_int32_le b 4 v;
        Bytes.set_int32_le b 8 (Int32.of_int tk);
        b
      in
      if Bytes.length body < 8 then reply 4l 0l 0
      else begin
        let op = Int32.to_int (Bytes.get_int32_le body 0) in
        let value = Bytes.get_int32_le body 4 in
        match op with
        | 1 -> (
            let r = local_enqueue s value in
            charge snode;
            match r with
            | `Ok ticket -> reply 0l 0l ticket
            | `Full -> reply 2l 0l 0
            | `Not_ready -> reply 3l 0l 0)
        | 2 -> (
            let r = local_dequeue s in
            charge snode;
            match r with
            | `Ok (v, ticket) -> reply 0l v ticket
            | `Empty -> reply 1l 0l 0
            | `Not_ready -> reply 3l 0l 0)
        | _ -> reply 4l 0l 0
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
  brand : int32;
  hook : Hook.t option;
  hkey : int * int * int;
  mutable cas_losses : int;
  mutable rpc_fallbacks : int;
}

(* Claim brands must be unique across every client of a queue, so they
   come from one runtime-global counter; -1 .. min_int is disjoint from
   every counter value the claim CAS could displace. *)
let next_brand = ref 0

let client ~rmem ~amsg ~kind ?policy ?hook s =
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
       Int32.of_int (- !next_brand));
    hook;
    hkey = server_key s;
    cas_losses = 0;
    rpc_fallbacks = 0;
  }

let cas_losses t = t.cas_losses
let rpc_fallbacks t = t.rpc_fallbacks
let node_id t = Atm.Addr.to_int (Cluster.Node.addr t.plane.Plane.node)

let begin_hook t =
  match t.hook with
  | Some h -> h (Hook.Begin { node = node_id t })
  | None -> ()

(* The designated cell of a committed enqueue/dequeue is its ticket's
   value word; an observed-empty dequeue commits a read of the (always
   untouched-in-history) head word instead, so the pair stays
   balanced. *)
let commit_hook t ~word op =
  match t.hook with
  | None -> ()
  | Some h ->
      let home, seg, gen = t.hkey in
      h (Hook.Commit { node = node_id t; home; seg; gen; word; op })

(* DX fast path *)

let poll_interval = Sim.Time.us 2

(* Claim a ticket from the counter at [word]: CAS counter -> brand,
   then CAS brand -> ticket+1 to release.  Both CASes are loss-proof:
   a retried claim that sees its own brand as witness knows it landed,
   and a failed release proves an earlier lost-reply release landed
   (only we can displace our brand). *)
let rec claim_ticket t ~word ~bound ~budget =
  let release ticket =
    ignore
      (Plane.cas t.plane ~doff:word ~old_value:t.brand
         ~new_value:(Int32.of_int (ticket + 1)))
  in
  let cur = Plane.read_word t.plane ~soff:word in
  if Int32.compare cur 0l < 0 then begin
    (* Another client's claim: its release is coming. *)
    Sim.Proc.wait poll_interval;
    claim_ticket t ~word ~bound ~budget
  end
  else if Int32.to_int cur >= bound then None
  else begin
    let won, witness =
      Plane.cas t.plane ~doff:word ~old_value:cur ~new_value:t.brand
    in
    if won || Int32.equal witness t.brand then begin
      let ticket = Int32.to_int cur in
      release ticket;
      Some (`Ok ticket)
    end
    else begin
      t.cas_losses <- t.cas_losses + 1;
      if budget <= 0 then Some `Contended
      else claim_ticket t ~word ~bound ~budget:(budget - 1)
    end
  end

let dx_enqueue t ~budget value =
  match claim_ticket t ~word:4 ~bound:t.cap ~budget with
  | None -> `Full
  | Some `Contended -> `Contended
  | Some (`Ok ticket) ->
      let b = Bytes.create slot_bytes in
      Bytes.set_int32_le b 0 1l;
      Bytes.set_int32_le b 4 value;
      Plane.write t.plane ~off:(slot_off ticket) b;
      `Ok ticket

let await_deposit t ticket =
  let rec spin tries =
    if tries > 200_000 then raise Rmem.Status.Timeout;
    let b = Plane.read_bytes t.plane ~soff:(slot_off ticket) ~len:slot_bytes in
    if Int32.equal (Bytes.get_int32_le b 0) 0l then begin
      Sim.Proc.wait poll_interval;
      spin (tries + 1)
    end
    else Bytes.get_int32_le b 4
  in
  spin 0

let rec dx_try_dequeue t ~budget =
  (* One atomic 8-byte read of [head; tail]: h >= tl in a single frame
     is a true instant of emptiness. *)
  let b = Plane.read_bytes t.plane ~soff:0 ~len:8 in
  let h = Bytes.get_int32_le b 0 in
  let tl = Bytes.get_int32_le b 4 in
  if Int32.compare h 0l < 0 || Int32.compare tl 0l < 0 then begin
    Sim.Proc.wait poll_interval;
    dx_try_dequeue t ~budget
  end
  else if Int32.compare h tl >= 0 then `Empty
  else
    match claim_ticket t ~word:0 ~bound:(Int32.to_int tl) ~budget with
    | None ->
        (* Head caught up with our tail snapshot: re-read the pair. *)
        dx_try_dequeue t ~budget
    | Some `Contended -> `Contended
    | Some (`Ok ticket) -> `Ok (await_deposit t ticket, ticket)

(* RPC path *)

let rpc_op t ~op ~value =
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int op);
  Bytes.set_int32_le b 4 value;
  let r = Call.call t.ep ~dst:t.home ~id:rpc_id b in
  if Bytes.length r < 12 then (4l, 0l, 0)
  else
    ( Bytes.get_int32_le r 0,
      Bytes.get_int32_le r 4,
      Int32.to_int (Bytes.get_int32_le r 8) )

let rpc_enqueue t value =
  let rec go attempt =
    if attempt > 5000 then raise Rmem.Status.Timeout;
    match rpc_op t ~op:1 ~value with
    | 0l, _, ticket -> ticket
    | 2l, _, _ -> raise Full
    | 3l, _, _ ->
        (* A DX claim holds the tail; its release is coming. *)
        Sim.Proc.wait (Sim.Time.us 5);
        go (attempt + 1)
    | _ -> failwith "Dds.Queue: malformed enqueue reply"
  in
  go 0

let rpc_try_dequeue t =
  match rpc_op t ~op:2 ~value:0l with
  | 0l, v, ticket -> `Ok (v, ticket)
  | 1l, _, _ | 3l, _, _ ->
      (* Empty, or the head ticket's deposit is still in flight — the
         claiming enqueue has not committed, so "empty" linearizes. *)
      `Empty
  | _ -> failwith "Dds.Queue: malformed dequeue reply"

(* Client-facing operations *)

let hybrid_budget = 2

let enqueue t value =
  begin_hook t;
  let ticket =
    match t.kind with
    | Kind.Dx -> (
        match dx_enqueue t ~budget:max_int value with
        | `Ok ticket -> ticket
        | `Full | `Contended -> raise Full)
    | Kind.Rpc -> rpc_enqueue t value
    | Kind.Hybrid -> (
        match dx_enqueue t ~budget:hybrid_budget value with
        | `Ok ticket -> ticket
        | `Full -> raise Full
        | `Contended ->
            t.rpc_fallbacks <- t.rpc_fallbacks + 1;
            rpc_enqueue t value)
  in
  commit_hook t ~word:(slot_off ticket + 4) (Hook.Write value);
  ticket

let try_dequeue t =
  begin_hook t;
  let r =
    match t.kind with
    | Kind.Dx -> (
        match dx_try_dequeue t ~budget:max_int with
        | `Ok (v, ticket) -> Some (v, ticket)
        | `Empty | `Contended -> None)
    | Kind.Rpc -> (
        match rpc_try_dequeue t with `Ok (v, tk) -> Some (v, tk) | `Empty -> None)
    | Kind.Hybrid -> (
        match dx_try_dequeue t ~budget:hybrid_budget with
        | `Ok (v, ticket) -> Some (v, ticket)
        | `Empty -> None
        | `Contended -> (
            t.rpc_fallbacks <- t.rpc_fallbacks + 1;
            match rpc_try_dequeue t with
            | `Ok (v, tk) -> Some (v, tk)
            | `Empty -> None))
  in
  (match r with
  | Some (v, ticket) -> commit_hook t ~word:(slot_off ticket + 4) (Hook.Read v)
  | None -> commit_hook t ~word:0 (Hook.Read 0l));
  Option.map fst r

let rec dequeue t =
  match try_dequeue t with
  | Some v -> v
  | None ->
      Sim.Proc.wait (Sim.Time.us 5);
      dequeue t

(* Hooked like any other operation so the fence's physical READ of the
   header cannot leak into a monitored history unscoped. *)
let flush t =
  match t.kind with
  | Kind.Rpc -> ()
  | Kind.Dx | Kind.Hybrid ->
      begin_hook t;
      Plane.fence t.plane;
      commit_hook t ~word:0 Hook.Sync
