(* The remote network memory facade: the paper's primary contribution.

   One [t] per node plays both roles of the protocol: it issues
   meta-instructions (WRITE / READ / CAS) against imported descriptors,
   and it services incoming requests against locally exported segments.
   All the kernel emulation costs of the paper's trap-and-emulate
   implementation are charged here, against the owning node's CPU.

   Data transfer carries no implicit control transfer: a remote WRITE
   deposits bytes and returns; the destination process learns about it
   only if the notify machinery is engaged (see {!Notification}). *)

type buffer = { space : Cluster.Address_space.t; base : int; len : int }

let buffer ~space ~base ~len =
  if base < 0 || len <= 0 then invalid_arg "Remote_memory.buffer";
  { space; base; len }

(* A READ's or CAS's completion is its pending record itself: entered
   in the pending table under its request id at issue, filled once with
   one int outcome, and awaited by one process, which parks on it.

   The outcome is [empty] until filled.  Then it is the witness word,
   sign-extended, of a served CAS; 0 for a served READ; or [unserved
   status], which no 32-bit word equals, for either one not served.  No
   tuple, option or boxed word per completion.  Reading it marks it
   [spent].  It returns to its node's [pool] when its [holds] (its
   awaiter's until read, its watchdog's until fired, thunks built once)
   drop to 0, so no watchdog fires into a reused record. *)
type completion = {
  pool : pool;
  mutable desc : Descriptor.t;
  mutable cas : bool;
  mutable off : int; (* in the segment: a READ's source, a CAS's word *)
  mutable count : int; (* 4 for a CAS *)
  mutable buf : buffer; (* where a READ deposits, or a CAS its success word *)
  mutable doff : int; (* in [buf]; negative for a CAS that deposits nothing *)
  mutable notify : bool;
  mutable old_value : int; (* a CAS's expected word *)
  mutable reqid : int;
  mutable received : int;
  mutable chunks : Bytes.t; (* a bit per reply chunk, set when counted *)
  mutable outcome : int;
  wait : Sim.Wait.t; (* its one awaiter parks here *)
  mutable holds : int;
  mutable span : Sim.Time.t;
  mutable arm : (unit -> unit) option;
      (* the watchdog's first event, built by the first timed use *)
}

(* A node's free records, a stack in [free.(0 .. top - 1)]. *)
and pool = { mutable free : completion array; mutable top : int }

let empty = min_int
let spent = min_int + 1
let unserved status = (1 + Status.to_code status) lsl 32

let cas_status outcome =
  if outcome >= 1 lsl 32 then Status.of_code ((outcome asr 32) - 1)
  else Status.Ok

(* What a blocked waiter is reported blocked on, built once. *)
let read_label = Sim.Engine.Quoted ("ivar", "rmem READ completion")
let write_label = Sim.Engine.Quoted ("rmem", "WRITE")
let cas_label = Sim.Engine.Quoted ("ivar", "rmem CAS completion")

let completed c = c.outcome <> empty

let fill c outcome =
  if completed c then invalid_arg "Remote_memory: completion filled twice";
  c.outcome <- outcome;
  Sim.Wait.unpark c.wait

let release c =
  c.holds <- c.holds - 1;
  if c.holds = 0 then begin
    let p = c.pool in
    if p.top = Array.length p.free then
      p.free <- Array.append p.free (Array.make (p.top + 4) c);
    p.free.(p.top) <- c;
    p.top <- p.top + 1
  end

let outcome c =
  if c.outcome = spent then invalid_arg "Remote_memory.await: already spent";
  (* Only a [read]'s: a blocking op fills before its issue returns. *)
  if not (completed c) then Sim.Wait.park c.wait ~resource:read_label;
  let outcome = c.outcome in
  c.outcome <- spent;
  release c;
  outcome

let await c = cas_status (outcome c)

(* [v] as the 32-bit word a CAS compares, sign-extended. *)
let word32 v = (v lsl 31) asr 31

type Cluster.Node.event +=
  | Exported of Segment.t
  | Issued of {
      op : Rights.op;
      desc : Descriptor.t;
      off : int;
      count : int;
      notify : bool;
      policied : bool;
      cas : (int32 * int32) option;
    }
  | Issue_rejected of {
      op : Rights.op;
      desc : Descriptor.t;
      off : int;
      count : int;
      status : Status.t;
    }
  | Served of {
      op : Rights.op;
      src : Atm.Addr.t;
      segment : Segment.t;
      off : int;
      count : int;
      notified : bool;
      cas_success : bool option;
    }
  | Serve_rejected of {
      op : Rights.op;
      src : Atm.Addr.t;
      seg : int;
      gen : Generation.t;
      off : int;
      count : int;
      status : Status.t;
    }
  | Nacked of { src : Atm.Addr.t; nack : Wire.write_nack }
  | Completed of {
      op : Rights.op;
      desc : Descriptor.t;
      off : int;
      count : int;
      status : Status.t;
      cas_success : bool option;
    }
  | Retried
  | Recovered of { seg : int; op : string; elapsed : Sim.Time.t }
  | Gave_up
  | Refused
  | Revalidated

(* The frame a node is serving, with its fields as {!Wire.dispatch}
   read them, and how far its handler has got.  The handlers run at
   interrupt level, as chains of CPU charges, and a node serves one
   frame at a time, so this one record carries each handler's state
   across its charges.  Which fields a handler uses is said at the
   handler. *)
type rx = {
  mutable src : Atm.Addr.t;
  mutable seg : int;
  mutable gen : Generation.t;
  mutable off : int;
  mutable count : int;
  mutable notify : bool;
  mutable swab : bool;
  mutable payload : bytes;
  mutable pos : int;
  mutable len : int;
  mutable reqid : int;
  mutable status : Status.t;
  mutable old_value : int;
  mutable new_value : int;
  mutable witness : int;
  mutable items : Wire.burst_item list;
  mutable extents : (int * Wire.view) list; (* newest first *)
  mutable segment : Segment.t;
  mutable reply : Atm.Frame.t;
  mutable pending : completion;
  mutable sv : Obs.Trace.serve option;
}

type t = {
  node : Cluster.Node.t;
  frames : Atm.Frame.pool; (* the network's, for the in-place frames *)
  mutable rx_request_category : string;
  mutable tx_reply_category : string;
  mutable client_category : string;
  exported : Segment.t Sim.Int_table.t;
  mutable next_segment_id : int;
  mutable next_generation : Generation.t;
  pending : completion Sim.Int_table.t;
  completions : pool;
  mutable next_reqid : int;
  completion_fd : Notification.t;
  ops : Metrics.Account.t;
  data_bytes : Metrics.Account.t;
  errors : Metrics.Account.t;
  mutable crypto : Crypto.t option; (* link encryption, section 3.5 *)
  write_failures : Status.t Sim.Int_table.t;
  (* {!stream_key} -> latest nacked WRITE status, cleared on take *)
  mutable recovery_depth : int;
  (* > 0 while a recovery policy drives the current issue: marks the
     Issued events it produces as policied for the lint layer *)
  fence_buf : buffer;
  (* where fences deposit the word they read and discard, in a space
     never registered in the node, so fencing does not grow it; also the
     [buf] of a CAS that deposits nothing *)
  rx : rx;
  mutable irq : t Cluster.Cpu.charger option;
  (* the CPU as the serve side's steps charge it, from {!attach} on *)
  traps : trap Cluster.Cpu.chargers; (* the CPU as issues' traps charge it *)
  writes : sending Cluster.Cpu.chargers; (* the CPU as WRITEs charge it *)
}

(* A READ or CAS in its trap, its lent charger's argument.  The issuer
   parks on [parked], not [c], so a fill during the trap wakes nobody. *)
and trap = {
  owner : t;
  parked : Sim.Wait.t;
  mutable c : completion;
  mutable request : Atm.Frame.t;
  mutable fl : Obs.Trace.flow option;
  mutable timed : bool; (* [c] has a watchdog, its [span] *)
  mutable blocking : bool; (* the issuer waits for the fill, not the trap *)
}

(* A WRITE or write burst on its way out, its lent charger's argument:
   one chain of charges, the trap, then per frame its FIFO copy (and its
   encryption, with a key set) and its transmission, with the issuer
   parked on [issuer] until the last frame is sent. *)
and sending = {
  sender : t;
  issuer : Sim.Wait.t;
  mutable flow : Obs.Trace.flow option;
  mutable target : Descriptor.t;
  mutable source : bytes; (* byte [i] goes to segment offset [origin + i] *)
  mutable origin : int;
  mutable from : int; (* the next frame's first byte, up to [upto] *)
  mutable upto : int;
  mutable chunk : int; (* the bytes of the frame in its FIFO copy *)
  mutable notifies : bool;
  mutable swabs : bool;
  mutable frame : Atm.Frame.t;
  mutable uncharged : Wire.extent list; (* a burst's, their encryption owed *)
}

(* Events go out on the node's stream.  Every site that builds an event
   does so under [if observed t]: without flambda the record would
   otherwise be allocated before [emit] could discard it. *)
let observed t = Cluster.Node.observed t.node
let emit t event = Cluster.Node.emit t.node event

(* ------------------------------------------------------------------ *)
(* Cost arithmetic.                                                    *)

let costs t = Cluster.Node.costs t.node
let cpu t = Cluster.Node.cpu t.node
let nid t = Atm.Addr.to_int (Cluster.Node.addr t.node)

let words_per_data_cell = 12
(* 8-byte header + 40 data bytes = 48 bytes = 12 words per cell. *)

(* Formatting and copying [len] data bytes into the transmit FIFO:
   per-cell setup plus twelve word accesses per cell (header included) —
   the paper-faithful 40-data-bytes-per-cell arithmetic. *)
let tx_data_cost c len =
  let cells = Wire.data_cells len in
  Sim.Time.add
    (Sim.Time.mul c.Cluster.Costs.io_cell_overhead cells)
    (Sim.Time.mul c.Cluster.Costs.io_word (words_per_data_cell * cells))

(* Draining the same cells out of the receive FIFO: word copies only. *)
let rx_data_cost c len =
  let cells = Wire.data_cells len in
  Sim.Time.mul c.Cluster.Costs.io_word (words_per_data_cell * cells)

(* Streaming a single AAL5 burst frame of [len] bytes into the transmit
   FIFO.  The per-cell setup is paid once per [burst_cells]-sized group —
   the TCA-100's block-transfer mode keeps the FIFO streaming inside a
   group — and the word copies cover the frame exactly once.  This is
   the batching win: one trap, one descriptor check, and 48 payload
   bytes per cell instead of 40. *)
let tx_burst_cost c len =
  let cells = Atm.Aal.cells_of_len len in
  let groups =
    (cells + c.Cluster.Costs.burst_cells - 1) / c.Cluster.Costs.burst_cells
  in
  Sim.Time.add
    (Sim.Time.mul c.Cluster.Costs.io_cell_overhead groups)
    (Sim.Time.mul c.Cluster.Costs.io_word (Atm.Aal.words_of_len len))

(* Draining a burst frame out of the receive FIFO: word copies only. *)
let rx_burst_cost c len =
  Sim.Time.mul c.Cluster.Costs.io_word (Atm.Aal.words_of_len len)

let tx_ctrl_cost c payload_bytes = Cluster.Costs.cell_copy_cost c ~payload_bytes

let rx_ctrl_cost c payload_bytes =
  Sim.Time.mul c.Cluster.Costs.io_word (Atm.Aal.words_of_len payload_bytes)

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)

(* A space the node does not register: the read-back target of fences
   and verifying writes, reclaimed with its owner rather than held for
   the node's lifetime. *)
let scratch_space () = Cluster.Address_space.create ~asid:0 ()

(* A completion record, blank until [take] fills it. *)
let blank pool ~desc ~buf =
  { pool; desc; cas = false; off = 0; count = 0; buf; doff = 0; notify = false;
    old_value = 0; reqid = 0; received = 0; chunks = Bytes.empty;
    outcome = empty; wait = Sim.Wait.create (); holds = 0;
    span = Sim.Time.zero; arm = None }

(* The in-service record of a node, its fields placeholders until the
   first frame. *)
let rx node completions fence_buf completion_fd =
  let addr = Cluster.Node.addr node in
  {
    src = addr; seg = 0; gen = Generation.initial; off = 0; count = 0;
    notify = false; swab = false; payload = Bytes.empty; pos = 0; len = 0;
    reqid = 0; status = Status.Ok; old_value = 0; new_value = 0; witness = 0;
    items = []; extents = [];
    segment =
      Segment.create ~id:0 ~name:"" ~space:fence_buf.space ~base:0 ~len:1
        ~generation:Generation.initial ~default_rights:Rights.read_only
        ~notification:completion_fd ~policy:Segment.Conditional;
    reply = Atm.Nic.none;
    pending =
      blank completions ~buf:fence_buf
        ~desc:
          (Descriptor.create ~remote:addr ~segment_id:0
             ~generation:Generation.initial ~size:1 ~rights:Rights.read_only);
    sv = None;
  }

(* The state of a node's remote memory; {!attach} also claims the
   protocol's frame tags, once the handlers are defined. *)
let create node =
  let completions = { free = [||]; top = 0 } in
  let completion_fd = Notification.create ~name:"completion fd" node in
  let fence_buf = buffer ~space:(scratch_space ()) ~base:0 ~len:4 in
  {
    node;
    frames = Atm.Nic.pool (Cluster.Node.nic node);
    rx_request_category = Cluster.Cpu.cat_emulation;
    tx_reply_category = Cluster.Cpu.cat_emulation;
    client_category = Cluster.Cpu.cat_emulation;
    exported = Sim.Int_table.create 16;
    next_segment_id = 1;
    next_generation = Generation.initial;
    pending = Sim.Int_table.create 16;
    completions;
    next_reqid = 1;
    completion_fd;
    ops = Metrics.Account.create ();
    data_bytes = Metrics.Account.create ();
    errors = Metrics.Account.create ();
    crypto = None;
    write_failures = Sim.Int_table.create 4;
    recovery_depth = 0;
    fence_buf;
    rx = rx node completions fence_buf completion_fd;
    irq = None;
    traps =
      Cluster.Cpu.chargers (Cluster.Node.cpu node) (Sim.Engine.Text "rmem trap");
    writes =
      Cluster.Cpu.chargers (Cluster.Node.cpu node) (Sim.Engine.Text "rmem WRITE");
  }

let node t = t.node
let completion_fd t = t.completion_fd
let ops t = t.ops
let data_bytes t = t.data_bytes
let errors t = t.errors

(* Instantaneous state for the telemetry sampler. *)
let inflight t = Sim.Int_table.length t.pending

let notification_backlog t =
  Sim.Int_table.fold
    (fun _ segment acc -> acc + Notification.pending (Segment.notification segment))
    t.exported
    (Notification.pending t.completion_fd)

let set_categories t ?rx_request ?tx_reply ?client () =
  Option.iter (fun c -> t.rx_request_category <- c) rx_request;
  Option.iter (fun c -> t.tx_reply_category <- c) tx_reply;
  Option.iter (fun c -> t.client_category <- c) client

let set_server_role t =
  (* Outgoing writes a server issues (e.g. Hybrid-1 result writes into a
     clerk's reply segment) are its data-reply work too. *)
  set_categories t ~rx_request:Cluster.Cpu.cat_data_reception
    ~tx_reply:Cluster.Cpu.cat_data_reply ~client:Cluster.Cpu.cat_data_reply ()

(* A (remote, segment, generation) stream as one int: segment ids are 8
   bits and generations 16, so the ints order as the triples do. *)
let key ~remote ~seg ~gen = (remote lsl 24) lor (seg lsl 16) lor gen

let stream_key desc =
  key
    ~remote:(Atm.Addr.to_int (Descriptor.remote desc))
    ~seg:(Descriptor.segment_id desc)
    ~gen:(Generation.to_int (Descriptor.generation desc))

let set_crypto t crypto = t.crypto <- crypto

(* Link encryption (an involution, so also decryption) into a fresh
   buffer, and the CPU it costs; both are no-ops without a key. *)
let crypt t (v : Wire.view) =
  match t.crypto with
  | None -> v
  | Some crypto ->
      Wire.view (Crypto.transform crypto ~pos:v.Wire.pos ~len:v.Wire.len v.Wire.buf)

(* Received data as it is deposited, once its decryption is charged:
   the view into the frame itself, unless decryption or the swab bit
   transforms it into a fresh buffer. *)
let received t ~swab (v : Wire.view) =
  let v = crypt t v in
  if swab then Wire.view (Wire.swap_words ~pos:v.Wire.pos ~len:v.Wire.len v.Wire.buf)
  else v

let deposit space ~addr (v : Wire.view) =
  Cluster.Address_space.write_from space ~addr v.Wire.buf ~pos:v.Wire.pos
    ~len:v.Wire.len

(* [received] then [deposit] for the [len] bytes of a frame from [pos],
   building no view when the data is deposited as it came. *)
let deposit_received t ~swab space ~addr buf ~pos ~len =
  match t.crypto with
  | None when not swab ->
      Cluster.Address_space.write_from space ~addr buf ~pos ~len
  | _ -> deposit space ~addr (received t ~swab { Wire.buf; pos; len })

(* ------------------------------------------------------------------ *)
(* Segment export / revoke / import.                                   *)

let alloc_segment_id t =
  let rec probe attempts candidate =
    if attempts > 256 then failwith "Remote_memory: out of segment ids"
    else if Sim.Int_table.mem t.exported candidate then
      probe (attempts + 1) ((candidate + 1) land 0xFF)
    else candidate
  in
  let id = probe 0 (t.next_segment_id land 0xFF) in
  t.next_segment_id <- (id + 1) land 0xFF;
  id

let export t ~space ~base ~len ?id ?(policy = Segment.Conditional)
    ?(rights = Rights.read_only) ~name () =
  let c = costs t in
  let id =
    match id with
    | None -> alloc_segment_id t
    | Some id ->
        if Sim.Int_table.mem t.exported id then
          invalid_arg "Remote_memory.export: id in use";
        id
  in
  let generation = t.next_generation in
  t.next_generation <- Generation.next generation;
  let pages = Cluster.Address_space.pin space ~addr:base ~len in
  Cluster.Cpu.use (cpu t) ~category:t.client_category
    (Sim.Time.add c.Cluster.Costs.segment_export_kernel
       (Sim.Time.mul c.Cluster.Costs.page_pin pages));
  let notification =
    Notification.create ~name:(name ^ " fd") ~segment:id t.node
  in
  let segment =
    Segment.create ~id ~name ~space ~base ~len ~generation
      ~default_rights:rights ~notification ~policy
  in
  Sim.Int_table.replace t.exported id segment;
  Metrics.Account.add t.ops ~category:"export" 1.;
  if observed t then emit t (Exported segment);
  segment

let revoke t segment =
  let c = costs t in
  Segment.mark_revoked segment;
  Sim.Int_table.remove t.exported (Segment.id segment);
  Cluster.Address_space.unpin (Segment.space segment)
    ~addr:(Segment.base segment) ~len:(Segment.length segment);
  Cluster.Cpu.use (cpu t) ~category:t.client_category
    c.Cluster.Costs.segment_revoke_kernel;
  Metrics.Account.add t.ops ~category:"revoke" 1.

let exports t =
  Sim.Int_table.fold (fun _ segment acc -> segment :: acc) t.exported []
  |> List.sort (fun a b -> Int.compare (Segment.id a) (Segment.id b))

let import t ~remote ~segment_id ~generation ~size
    ?(rights = Rights.read_only) () =
  let c = costs t in
  Cluster.Cpu.use (cpu t) ~category:t.client_category
    c.Cluster.Costs.kernel_table_install;
  Metrics.Account.add t.ops ~category:"import" 1.;
  Descriptor.create ~remote ~segment_id ~generation ~size ~rights

(* ------------------------------------------------------------------ *)
(* Local (issue-side) validation.                                      *)

let reject t desc op ~off ~count status =
  if observed t then emit t (Issue_rejected { op; desc; off; count; status });
  raise (Status.Remote_error status)

let check_local t desc op ~off ~count =
  if Descriptor.is_stale desc then
    reject t desc op ~off ~count Status.Stale_generation;
  if not (Rights.allows (Descriptor.rights desc) op) then
    reject t desc op ~off ~count Status.Protection;
  if off < 0 || count < 0 || off + count > Descriptor.size desc then
    reject t desc op ~off ~count Status.Bounds

let check_write t desc ~off ~count =
  check_local t desc Rights.Write_op ~off ~count

(* The first request id from [candidate] on that no pending operation holds. *)
let rec free_reqid t attempts candidate =
  if attempts > 0x10000 then failwith "Remote_memory: out of request ids"
  else
    let candidate = if candidate = 0 then 1 else candidate in
    if Sim.Int_table.mem t.pending candidate then
      free_reqid t (attempts + 1) ((candidate + 1) land 0xFFFF)
    else candidate

let alloc_reqid t =
  let id = free_reqid t 0 (t.next_reqid land 0xFFFF) in
  t.next_reqid <- (id + 1) land 0xFFFF;
  id

(* ------------------------------------------------------------------ *)
(* Meta-instructions: issue side.                                      *)

let burst_data_bytes c = c.Cluster.Costs.burst_cells * Wire.data_bytes_per_cell

let outside (buf : buffer) ~off ~len = off < 0 || off + len > buf.len

(* The prologue every meta-instruction shares.  It validates the
   descriptor for [off, count] (or for each extent of a burst), then
   (when [local_outside]) rejects the local buffer range a READ or CAS
   deposits into; emits Issued; and opens the trace flow, which it
   returns.  A READ or CAS then enters its completion in the pending
   table, before the [trap], so a crash during the trap still fails it. *)
let issue t desc op ~name ~off ~count ~notify ~cas_old ~cas_new ~extents
    ~local_outside =
  (match extents with
  | [] -> check_local t desc op ~off ~count
  | _ ->
      List.iter
        (fun (e : Wire.extent) -> check_local t desc op ~off:e.off ~count:e.len)
        extents);
  if local_outside then reject t desc op ~off ~count Status.Bounds;
  if observed t then
    emit t
      (Issued
         {
           op;
           desc;
           off;
           count;
           notify;
           policied = t.recovery_depth > 0;
           cas =
             (if op = Rights.Cas_op then
                Some (Int32.of_int cas_old, Int32.of_int cas_new)
              else None);
         });
  Obs.Trace.issue_begin ~node:(nid t) ~op:name
    ~seg:(Descriptor.segment_id desc) ~off ~count

(* The trap, the descriptor check and [ctrl] of request formatting. *)
let trap_cost t ~ctrl =
  let c = costs t in
  Sim.Time.add
    (Sim.Time.add c.Cluster.Costs.trap c.Cluster.Costs.descriptor_check)
    ctrl

let new_sending t =
  { sender = t; issuer = Sim.Wait.create (); flow = None;
    target = t.rx.pending.desc; source = Bytes.empty; origin = 0; from = 0;
    upto = 0; chunk = 0; notifies = false; swabs = false; frame = Atm.Nic.none;
    uncharged = [] }

(* A WRITE's chain, on a charger lent from [t.writes] for each step:
   the pool hands the same one back, so [w] is the argument throughout.
   Each frame is built in the step that ends the charge before it, so
   it holds the caller's bytes as they are at that instant. *)
let write_step w span next =
  let t = w.sender in
  ignore
    (Cluster.Cpu.lend t.writes new_sending t ~category:t.client_category span
       next
      : sending)

(* The end of a frame's FIFO copy: send it. *)
let sent w =
  Obs.Trace.phase_end w.flow;
  Cluster.Node.transmit_frame
    ?ctx:(Obs.Trace.wire_ctx w.flow)
    w.sender.node ~dst:(Descriptor.remote w.target) w.frame

let rec send_chunk w =
  let t = w.sender in
  let len = Int.min (burst_data_bytes (costs t)) (w.upto - w.from) in
  let seg = Descriptor.segment_id w.target in
  let gen = Descriptor.generation w.target in
  let off = w.origin + w.from in
  let notify = w.notifies && w.from + len >= w.upto in
  w.frame <-
    (match t.crypto with
    | None ->
        Wire.write_frame t.frames ~seg ~gen ~off ~notify ~swab:w.swabs w.source
          ~pos:w.from ~len
    | Some crypto ->
        Wire.write_frame t.frames ~seg ~gen ~off ~notify ~swab:w.swabs
          (Crypto.transform crypto ~pos:w.from ~len w.source)
          ~pos:0 ~len);
  w.from <- w.from + len;
  w.chunk <- len;
  (* The last frame is built: the caller's data is not needed again. *)
  if w.from = w.upto then w.source <- Bytes.empty;
  Obs.Trace.phase w.flow "nic";
  write_step w (tx_data_cost (costs t) len) chunk_copied

and chunk_copied w =
  match w.sender.crypto with
  | None -> chunk_sent w
  | Some crypto -> write_step w (Crypto.cost crypto ~bytes:w.chunk) chunk_sent

and chunk_sent w =
  sent w;
  if w.from < w.upto then send_chunk w else Sim.Wait.resume w.issuer

let write_trapped w =
  let t = w.sender in
  Obs.Trace.phase_end w.flow;
  Metrics.Account.add t.ops ~category:"write" 1.;
  Metrics.Account.add_int t.data_bytes ~category:"write" (w.upto - w.from);
  send_chunk w

(* A WRITE's trap, charged on a lent charger whose [next] is the rest of
   the chain: its record, for the caller to fill before it parks. *)
let trap_write t fl desc ~notify ~swab next =
  Obs.Trace.phase fl "trap";
  let w =
    Cluster.Cpu.lend t.writes new_sending t ~category:t.client_category
      (trap_cost t ~ctrl:Sim.Time.zero) next
  in
  w.flow <- fl;
  w.target <- desc;
  w.notifies <- notify;
  w.swabs <- swab;
  w

(* A WRITE of [count] bytes of [data] from [pos] to [off]: framed as a
   write of a buffer holding only them.  A zero-length write still
   sends its header cell, useful as a doorbell with the notify bit. *)
let send_write t desc ~off ~notify ~swab data ~pos ~count =
  let fl =
    issue t desc Rights.Write_op ~name:"WRITE" ~off ~count ~notify ~cas_old:0
      ~cas_new:0 ~extents:[] ~local_outside:false
  in
  let w = trap_write t fl desc ~notify ~swab write_trapped in
  w.source <- data;
  w.origin <- off - pos;
  w.from <- pos;
  w.upto <- pos + count;
  Sim.Wait.park w.issuer ~resource:write_label

(* A burst's extents' encryption, charged one extent at a time, then its
   FIFO copy. *)
let rec charge_extents w =
  match (w.sender.crypto, w.uncharged) with
  | Some crypto, (e : Wire.extent) :: rest ->
      w.uncharged <- rest;
      write_step w (Crypto.cost crypto ~bytes:e.len) charge_extents
  | None, _ | Some _, [] ->
      let t = w.sender in
      Obs.Trace.phase w.flow "nic";
      write_step w
        (tx_burst_cost (costs t) (Atm.Frame.length w.frame))
        burst_sent

and burst_sent w =
  sent w;
  Sim.Wait.resume w.issuer

(* Encrypt each extent's data in the burst frame in place. *)
let rec crypt_extents crypto frame pos = function
  | [] -> ()
  | (e : Wire.extent) :: rest ->
      let pos = pos + Wire.burst_item_header_bytes in
      Bytes.blit (Crypto.transform crypto ~pos ~len:e.len frame) 0 frame pos e.len;
      crypt_extents crypto frame (pos + e.len) rest

let burst_trapped w =
  let t = w.sender in
  Obs.Trace.phase_end w.flow;
  Metrics.Account.add t.ops ~category:"write burst" 1.;
  Metrics.Account.add_int t.data_bytes ~category:"write" w.upto;
  w.frame <-
    Wire.write_burst_frame t.frames ~seg:(Descriptor.segment_id w.target)
      ~gen:(Descriptor.generation w.target) ~notify:w.notifies ~swab:w.swabs
      w.uncharged;
  (match t.crypto with
  | None -> w.uncharged <- []
  | Some crypto ->
      crypt_extents crypto (Atm.Frame.payload w.frame) Wire.burst_header_bytes
        w.uncharged);
  charge_extents w

(* A scatter-gather WRITE burst: several extents of one segment framed
   once at the AAL layer, so the whole batch costs one trap, one
   descriptor check and one FIFO setup per [burst_cells] group instead
   of per 40-byte-payload cell.  The monitor sees one Issued covering
   the total byte count; the serve side emits one Served per extent,
   which sum back to it.  Extents must be non-empty; overlapping
   extents deposit in list order (last writer wins). *)
let send_burst t desc ~notify ~swab (extents : Wire.extent list) =
  let total = List.fold_left (fun acc (e : Wire.extent) -> acc + e.len) 0 extents in
  let fl =
    issue t desc Rights.Write_op ~name:"WRITE_BURST"
      ~off:(List.hd extents).off ~count:total ~notify ~cas_old:0
      ~cas_new:0 ~extents ~local_outside:false
  in
  let w = trap_write t fl desc ~notify ~swab burst_trapped in
  w.upto <- total;
  w.uncharged <- extents;
  Sim.Wait.park w.issuer ~resource:write_label

(* A READ's or CAS's timeout: if still empty, [c] leaves the pending table
   (a straggling reply is dropped) and fills with [Timed_out]. *)
let expire t c =
  if not (completed c) then begin
    Sim.Int_table.remove t.pending c.reqid;
    Metrics.Account.add t.errors ~category:"timeout" 1.;
    fill c (unserved Status.Timed_out)
  end;
  release c

(* Arm [c]'s watchdog as two plain events: one at now that schedules
   [expire] [span] later.  That is the event shape of a watchdog
   process that starts now and waits [span], without the process.  A
   single event at now + span would be cheaper, but it would take its
   sequence number earlier, reorder it against other events of that
   instant and shift every later seq, moving the model checker's choice
   points and invalidating recorded schedules. *)
let arm_timeout t c =
  let engine = Cluster.Node.engine t.node in
  let arm =
    match c.arm with
    | Some arm -> arm
    | None ->
        let expire () = expire t c in
        let arm () =
          Sim.Engine.schedule_at engine
            (Sim.Time.add (Sim.Engine.now engine) c.span)
            expire
        in
        c.arm <- Some arm;
        arm
  in
  Sim.Engine.schedule engine arm

(* A READ's or CAS's record, pooled if one is free, with a fresh reqid,
   pending from before its trap, so that a crash in the trap fails it. *)
let take t ~desc ~cas ~off ~count ~buf ~doff ~notify ~old_value ~timeout =
  let p = t.completions and burst = burst_data_bytes (costs t) in
  let bytes = if count <= burst then 0 else ((count + burst - 1) / burst + 7) / 8 in
  let c =
    if p.top > 0 then begin
      p.top <- p.top - 1;
      p.free.(p.top)
    end
    else blank p ~desc ~buf
  in
  c.desc <- desc;
  c.cas <- cas;
  c.off <- off;
  c.count <- count;
  c.buf <- buf;
  c.doff <- doff;
  c.notify <- notify;
  c.old_value <- old_value;
  c.reqid <- alloc_reqid t;
  c.received <- 0;
  if Bytes.length c.chunks < bytes then c.chunks <- Bytes.make bytes '\000'
  else Bytes.fill c.chunks 0 (Bytes.length c.chunks) '\000';
  c.outcome <- empty;
  (match timeout with Some span -> c.span <- span | None -> ());
  c.holds <- (if Option.is_some timeout then 2 else 1);
  Sim.Int_table.replace t.pending c.reqid c;
  c

(* A trap's end, where a [Cpu.use] would have returned: book the op,
   send it, arm its watchdog, then resume the issuer inline if it waits
   only for the trap or [c] filled (a crash), else leave it on [c]. *)
let trapped tr =
  let t = tr.owner and c = tr.c in
  Obs.Trace.phase_end tr.fl;
  Metrics.Account.add t.ops ~category:(if c.cas then "cas" else "read") 1.;
  if not c.cas then Metrics.Account.add_int t.data_bytes ~category:"read" c.count;
  Cluster.Node.transmit_frame
    ?ctx:(Obs.Trace.wire_ctx tr.fl)
    t.node ~dst:(Descriptor.remote c.desc) tr.request;
  if tr.timed then arm_timeout t c;
  if completed c || not tr.blocking then Sim.Wait.resume tr.parked
  else Sim.Wait.hand_over tr.parked c.wait

let new_trap t =
  { owner = t; parked = Sim.Wait.create (); c = t.rx.pending;
    request = Atm.Nic.none; fl = None; timed = false; blocking = false }

(* Issue [c] and its [request]: the trap charged at event level, the
   issuer parked once, until its end or, if [blocking], [c]'s fill. *)
let trap_then_park t c request fl ~ctrl ~timeout ~blocking =
  Obs.Trace.phase fl "trap";
  let tr =
    Cluster.Cpu.lend t.traps new_trap t ~category:t.client_category
      (trap_cost t ~ctrl) trapped
  in
  tr.c <- c;
  tr.request <- request;
  tr.fl <- fl;
  tr.timed <- Option.is_some timeout;
  tr.blocking <- blocking;
  Sim.Wait.park tr.parked ~resource:(if c.cas then cas_label else read_label);
  c

let send_read ?timeout t desc ~soff ~count ~dst ~doff ~notify ~blocking
    ?(swab = false) () =
  let fl =
    issue t desc Rights.Read_op ~name:"READ" ~off:soff ~count ~notify
      ~cas_old:0 ~cas_new:0 ~extents:[]
      ~local_outside:(outside dst ~off:doff ~len:count)
  in
  let c =
    take t ~desc ~cas:false ~off:soff ~count ~buf:dst ~doff ~notify
      ~old_value:0 ~timeout
  in
  trap_then_park t c
    (Wire.read_frame t.frames ~seg:(Descriptor.segment_id desc)
       ~gen:(Descriptor.generation desc) ~soff ~count ~reqid:c.reqid ~notify
       ~swab)
    fl ~ctrl:(tx_ctrl_cost (costs t) 14) ~timeout ~blocking

let read ?timeout t desc ~soff ~count ~dst ~doff () =
  send_read ?timeout t desc ~soff ~count ~dst ~doff ~notify:false ~blocking:false ()

let send_cas ?timeout t desc ~doff ~old_value ~new_value ?result () =
  let fl =
    issue t desc Rights.Cas_op ~name:"CAS" ~off:doff ~count:4 ~notify:false
      ~cas_old:old_value ~cas_new:new_value ~extents:[]
      ~local_outside:
        (match result with
        | Some (buf, off) -> outside buf ~off ~len:4
        | None -> false)
  in
  let c =
    take t ~desc ~cas:true ~off:doff ~count:4
      ~buf:(match result with Some (buf, _) -> buf | None -> t.fence_buf)
      ~doff:(match result with Some (_, off) -> off | None -> -1)
      ~notify:false ~old_value ~timeout
  in
  trap_then_park t c
    (Wire.cas_frame t.frames ~seg:(Descriptor.segment_id desc)
       ~gen:(Descriptor.generation desc) ~doff ~old_value ~new_value
       ~reqid:c.reqid ~notify:false)
    fl ~ctrl:(tx_ctrl_cost (costs t) 18) ~timeout ~blocking:true

let take_write_failure t desc =
  let key = stream_key desc in
  match Sim.Int_table.find_opt t.write_failures key with
  | None -> None
  | Some status ->
      Sim.Int_table.remove t.write_failures key;
      Some status

let raise_write_failure t desc =
  match take_write_failure t desc with
  | None -> ()
  | Some status -> raise (Status.Remote_error status)

let await_read ?timeout t desc ~soff ~count ~dst ~doff ?(notify = false) ?swab
    () =
  Status.check
    (await
       (send_read ?timeout t desc ~soff ~count ~dst ~doff ~notify ~blocking:true
          ?swab ()))

(* Writes are unacknowledged; links are FIFO.  A fence is therefore one
   minimal read round trip: when it returns, every WRITE this node
   previously issued toward the same segment has been deposited — or, if
   the destination had to drop one, its nack has arrived and the fence
   reports the loss instead of succeeding silently. *)
let await_fence ?timeout t desc =
  await_read ?timeout t desc ~soff:0 ~count:4 ~dst:t.fence_buf ~doff:0 ();
  raise_write_failure t desc

let await_cas ?timeout t desc ~doff ~old_value ~new_value ?result () =
  let outcome =
    outcome (send_cas ?timeout t desc ~doff ~old_value ~new_value ?result ())
  in
  Status.check (cas_status outcome);
  outcome

(* ------------------------------------------------------------------ *)
(* Policy-driven recovery (§3.7).                                      *)

(* Execute one blocking operation under a recovery policy: reissue on
   retryable failures with exponential backoff, run the policy's
   revalidator on stale-descriptor failures, re-raise terminal ones.
   Attempts run with [recovery_depth] raised so the Issued events they
   produce are marked policied (the unbounded-retry lint keys on it).
   Each attempt is [attempt_fn] given the policy's per-attempt timeout.
   Must be called from a simulated process (backoff blocks). *)
let run_policy t (policy : Recovery.policy) desc ~op attempt_fn =
  let engine = Cluster.Node.engine t.node in
  let scope =
    (* The name is built only when a tracer is attached. *)
    if Obs.Trace.enabled () then
      Obs.Trace.scope_begin ~node:(nid t) ~name:("recover:" ^ op)
    else None
  in
  let started = Sim.Engine.now engine in
  let timeout = Some (Recovery.timeout policy) in
  let finish v =
    Obs.Trace.scope_end scope;
    v
  in
  let rec go attempt =
    let outcome =
      t.recovery_depth <- t.recovery_depth + 1;
      match attempt_fn timeout with
      | v ->
          t.recovery_depth <- t.recovery_depth - 1;
          Ok v
      | exception exn -> (
          t.recovery_depth <- t.recovery_depth - 1;
          match exn with
          | Status.Timeout -> Error Status.Timed_out
          | Status.Remote_error status -> Error status
          | exn -> raise exn)
    in
    match outcome with
    | Ok v ->
        if attempt > 0 then begin
          Metrics.Account.add t.errors ~category:"recovered" 1.;
          if observed t then
            emit t
              (Recovered
                 {
                   seg = Descriptor.segment_id desc;
                   op;
                   elapsed = Sim.Time.diff (Sim.Engine.now engine) started;
                 })
        end;
        v
    | Error status ->
        let stop category event =
          Metrics.Account.add t.errors ~category 1.;
          emit t event;
          Status.check status;
          assert false
        in
        let give_up () = stop "gave-up" Gave_up in
        let retry () =
          Metrics.Account.add t.errors ~category:"retry" 1.;
          emit t Retried;
          Sim.Proc.wait (Recovery.backoff_after policy ~attempt);
          go (attempt + 1)
        in
        if attempt + 1 >= policy.Recovery.attempts then give_up ()
        else begin
          match Recovery.classify status with
          | Recovery.Terminal -> give_up ()
          | Recovery.Retryable -> retry ()
          | Recovery.Revalidate -> (
              match policy.Recovery.revalidate with
              | None -> give_up ()
              | Some revalidate ->
                  emit t Revalidated;
                  (* A refused revalidation is an answer, not lost work. *)
                  if revalidate desc then retry () else stop "refused" Refused)
        end
  in
  try finish (go 0)
  with exn ->
    Obs.Trace.scope_end scope;
    raise exn

(* Under a policy the per-attempt timeout is the policy's, so a caller's
   own [timeout] would be silently dropped: refuse the pair instead. *)
let exclusive fn timeout =
  if Option.is_some timeout then
    invalid_arg (fn ^ ": ?timeout and ?policy are exclusive")

(* The read-back half of a policied WRITE.  WRITE is unacknowledged and
   a frame the fault plane drops generates no nack — a bare fence round
   trip would sail past the gap and succeed.  So each attempt reads the
   written span back (the paper's "read of a known value") and compares
   it, treating a mismatch as loss to reissue: at-least-once deposit of
   idempotent data.  The read-back also flushes any nack, which is
   re-raised.  When the descriptor grants no read rights (or the data is
   byte-swapped in transit), only the nack-flushing fence remains — loss
   detection then needs an application-level read, as in the paper.
   Verification assumes no concurrent writer deposits different bytes
   into the same region mid-check (single-writer regions, the usual
   discipline here). *)
let verify_written ?timeout t desc ~swab ~off data =
  let span = Bytes.length data in
  if span <= 0 || swab || not (Rights.allows (Descriptor.rights desc) Rights.Read_op)
  then await_fence ?timeout t desc
  else begin
    (* Its own space: concurrent verifying writes compare what they
       read back, so they cannot share the fence space. *)
    let space = scratch_space () in
    let dst = buffer ~space ~base:0 ~len:span in
    await_read ?timeout t desc ~soff:off ~count:span ~dst ~doff:0 ();
    raise_write_failure t desc;
    if not (Bytes.equal (Cluster.Address_space.read space ~addr:0 ~len:span) data)
    then
      (* The deposit frame was lost on the wire (or corrupted and
         discarded at the NIC): surface it as the timeout it would
         eventually become. *)
      raise (Status.Remote_error Status.Timed_out)
  end

(* The blocking entry points: one each per meta-instruction, run once
   or, given a [policy], under {!run_policy}. *)

let write ?policy t desc ~off ?(notify = false) ?(swab = false) data =
  let count = Bytes.length data in
  match policy with
  | None -> send_write t desc ~off ~notify ~swab data ~pos:0 ~count
  | Some policy ->
      run_policy t policy desc ~op:"WRITE" (fun timeout ->
          send_write t desc ~off ~notify ~swab data ~pos:0 ~count;
          verify_written ?timeout t desc ~swab ~off data)

let write_sub t desc ~off ?(notify = false) data ~pos ~len =
  send_write t desc ~off ~notify ~swab:false data ~pos ~count:len

let write_burst t desc ?(notify = false) ?(swab = false) extents =
  if extents = [] then invalid_arg "Remote_memory.write_burst: empty burst";
  if List.exists (fun (e : Wire.extent) -> e.len = 0) extents then
    invalid_arg "Remote_memory.write_burst: empty extent";
  send_burst t desc ~notify ~swab extents

let read_wait ?timeout ?policy t desc ~soff ~count ~dst ~doff ?notify ?swab ()
    =
  match policy with
  | None -> await_read ?timeout t desc ~soff ~count ~dst ~doff ?notify ?swab ()
  | Some policy ->
      exclusive "Remote_memory.read_wait" timeout;
      run_policy t policy desc ~op:"READ" (fun timeout ->
          await_read ?timeout t desc ~soff ~count ~dst ~doff ?notify ?swab ())

let cas_wait ?policy t desc ~doff ~old_value ~new_value ?result () =
  match policy with
  | None -> await_cas t desc ~doff ~old_value ~new_value ?result ()
  | Some policy ->
      run_policy t policy desc ~op:"CAS" (fun timeout ->
          await_cas ?timeout t desc ~doff ~old_value ~new_value ?result ())

let fence ?policy t desc =
  match policy with
  | None -> await_fence t desc
  | Some policy ->
      run_policy t policy desc ~op:"FENCE" (fun timeout ->
          await_fence ?timeout t desc)

(* ------------------------------------------------------------------ *)
(* Crash and restart (driven by the fault plane).                      *)

(* A crashing node loses its in-flight requests: fail every pending
   completion (in reqid order, for determinism) so local waiters
   unblock with Timed_out rather than hanging forever, and forget any
   recorded write nacks. *)
let crash t =
  let pend = Sim.Int_table.fold (fun reqid p acc -> (reqid, p) :: acc) t.pending [] in
  let pend = List.sort (fun (a, _) (b, _) -> compare (a : int) b) pend in
  Sim.Int_table.reset t.pending;
  Sim.Int_table.reset t.write_failures;
  List.iter (fun (_, c) -> fill c (unserved Status.Timed_out)) pend

(* Restart after a crash: every export comes back under a fresh
   generation (in segment-id order), so requests against descriptors
   imported before the crash fail with Stale_generation until their
   holders re-import through the name service — the paper's restart
   safety argument.  [preserve] exempts well-known bootstrap segments,
   whose fixed generations are the contract that lets clerks find the
   name service again.  Write-inhibit state does not survive the
   restart; pages stay pinned (the exporting process is assumed to
   re-register immediately). *)
let restart_exports ?(preserve = []) t =
  let segs = Sim.Int_table.fold (fun _ segment acc -> segment :: acc) t.exported [] in
  let segs =
    List.sort (fun a b -> compare (Segment.id a) (Segment.id b)) segs
  in
  List.iter
    (fun old ->
      let id = Segment.id old in
      let generation =
        if List.mem id preserve then Segment.generation old
        else begin
          let g = t.next_generation in
          t.next_generation <- Generation.next g;
          g
        end
      in
      Segment.mark_revoked old;
      Sim.Int_table.remove t.exported id;
      let segment =
        Segment.create ~id ~name:(Segment.name old)
          ~space:(Segment.space old) ~base:(Segment.base old)
          ~len:(Segment.length old) ~generation
          ~default_rights:(Segment.default_rights old)
          ~notification:(Segment.notification old) ~policy:(Segment.policy old)
      in
      Sim.Int_table.replace t.exported id segment;
      Metrics.Account.add t.ops ~category:"re-export" 1.;
      if observed t then emit t (Exported segment))
    segs

(* ------------------------------------------------------------------ *)
(* Service side: incoming requests.                                    *)

(* The seven handlers below run at interrupt level, as the paper's
   kernel serves a request: from the event that takes the frame, with
   no process.  Each is a chain of steps.  A step that charges the CPU
   ([charge], on the charger [t.irq]) ends there, and its next step
   runs in the event that ends the span, where a process's [Cpu.use]
   would have returned; what the next step needs waits in [t.rx].  The
   last step ends the dispatch ([served]), and the node then takes its
   next frame.  So a frame is served with the events, instants and CPU
   order of a process running the same code, and costs no
   continuation.  The handlers take the frame's fields as
   {!Wire.dispatch} reads them in place, and every step and helper is a
   top-level function: serving a request allocates no closure, option
   or message record. *)

let charge t ~category span next =
  match t.irq with
  | Some irq -> Cluster.Cpu.charge irq ~category span next
  | None -> invalid_arg "Remote_memory: serving before attach"

(* [next] once [bytes] received bytes' decryption is charged: at once
   without a key. *)
let charge_crypto_then t ~category bytes next =
  match t.crypto with
  | None -> next t
  | Some crypto -> charge t ~category (Crypto.cost crypto ~bytes) next

let served t =
  Obs.Trace.serve_end t.rx.sv;
  Cluster.Node.dispatched t.node

let record_error t status =
  Metrics.Account.add t.errors ~category:(Status.to_string status) 1.

(* Why segment [seg] cannot serve [count] bytes at [off] for [op] from
   [src], or [Status.Ok]: a status, not a result or an option, so that
   checking a request allocates nothing.  On [Ok] the caller looks the
   segment up again, with no wait in between. *)
let serve_status t ~src ~seg ~gen ~off ~count op =
  match Sim.Int_table.find t.exported seg with
  | exception Not_found -> Status.Bad_segment
  | segment ->
      if Segment.is_revoked segment then Status.Bad_segment
      else if not (Generation.equal gen (Segment.generation segment)) then
        Status.Stale_generation
      else if not (Rights.allows (Segment.rights_for segment ~importer:src) op)
      then Status.Protection
      else if not (Segment.contains segment ~off ~count) then Status.Bounds
      else if
        not
          (Cluster.Address_space.is_pinned (Segment.space segment)
             ~addr:(Segment.base segment + off)
             ~len:(Int.max 1 count))
      then Status.Unpinned
      else Status.Ok

let nacked t =
  let rx = t.rx in
  Cluster.Node.transmit
    ?ctx:(Obs.Trace.serve_ctx rx.sv ~label:"nack")
    t.node ~dst:rx.src
    (Wire.encode
       (Wire.Write_nack
          { status = rx.status; seg = rx.seg; gen = rx.gen; off = rx.off;
            count = rx.count }));
  served t

(* A write this node cannot apply is data silently lost unless the
   issuer hears about it: report the drop with a negative ack (the
   success path stays unacknowledged, as in the paper).  Uses [src],
   [seg], [gen]; sets [off], [count] and [status] to the nack's. *)
let nack_write t ~off ~count status =
  let rx = t.rx in
  record_error t status;
  if observed t then
    emit t
      (Serve_rejected
         { op = Rights.Write_op; src = rx.src; seg = rx.seg; gen = rx.gen; off;
           count; status });
  Obs.Trace.serve_arg rx.sv "status" (Status.to_string status);
  rx.off <- off;
  rx.count <- count;
  rx.status <- status;
  charge t ~category:t.tx_reply_category (tx_ctrl_cost (costs t) 12) nacked

let write_decrypted t =
  let rx = t.rx in
  let segment = rx.segment and len = rx.count in
  deposit_received t ~swab:rx.swab (Segment.space segment)
    ~addr:(Segment.base segment + rx.off)
    rx.payload ~pos:rx.pos ~len;
  Metrics.Account.add_int t.data_bytes ~category:"write served" len;
  let notified = Segment.should_notify segment ~requested:rx.notify in
  if observed t then emit t
    (Served
       {
         op = Rights.Write_op;
         src = rx.src;
         segment;
         off = rx.off;
         count = len;
         notified;
         cas_success = None;
       });
  (if notified then
     Notification.post
       ?ctx:(Obs.Trace.serve_ctx rx.sv ~label:"notify")
       (Segment.notification segment)
       {
         Notification.src = rx.src;
         kind = Notification.Write_arrived;
         off = rx.off;
         count = len;
       });
  served t

let write_received t =
  let rx = t.rx in
  match
    serve_status t ~src:rx.src ~seg:rx.seg ~gen:rx.gen ~off:rx.off
      ~count:rx.count Rights.Write_op
  with
  | Status.Ok ->
      let segment = Sim.Int_table.find t.exported rx.seg in
      if Segment.write_inhibited segment then
        nack_write t ~off:rx.off ~count:rx.count Status.Write_inhibited
      else begin
        rx.segment <- segment;
        charge_crypto_then t ~category:t.rx_request_category rx.count
          write_decrypted
      end
  | status -> nack_write t ~off:rx.off ~count:rx.count status

(* A WRITE: [count] bytes of [payload] from [pos] to [off] of segment
   [seg] (found in [segment] once checked). *)
let handle_write t src ~seg ~gen ~off ~notify ~swab payload ~pos ~len =
  let c = costs t and rx = t.rx in
  rx.src <- src;
  rx.seg <- seg;
  rx.gen <- gen;
  rx.off <- off;
  rx.count <- len;
  rx.notify <- notify;
  rx.swab <- swab;
  rx.payload <- payload;
  rx.pos <- pos;
  rx.sv <- Obs.Trace.serve_begin ~node:(nid t) ~name:"serve";
  charge t ~category:t.rx_request_category
    (Sim.Time.add
       (Sim.Time.add c.Cluster.Costs.rx_interrupt (rx_data_cost c len))
       c.Cluster.Costs.vm_deliver)
    write_received

(* A burst's first extent this node cannot apply, with its status, or
   [None] when every extent can be applied. *)
let rec burst_rejection t src ~seg ~gen = function
  | [] -> None
  | (it : Wire.burst_item) :: rest -> (
      let count = it.data.Wire.len in
      match serve_status t ~src ~seg ~gen ~off:it.off ~count Rights.Write_op with
      | Status.Ok ->
          if Segment.write_inhibited (Sim.Int_table.find t.exported seg) then
            Some (Status.Write_inhibited, it.off, count)
          else burst_rejection t src ~seg ~gen rest
      | status -> Some (status, it.off, count))

(* Deposit [extents], newest first, oldest first; the notification, if
   any, is reported on the newest. *)
let rec deposit_extents t src segment ~notified ~newest = function
  | [] -> ()
  | (off, (data : Wire.view)) :: older ->
      deposit_extents t src segment ~notified ~newest:false older;
      deposit (Segment.space segment) ~addr:(Segment.base segment + off) data;
      let count = data.Wire.len in
      Metrics.Account.add_int t.data_bytes ~category:"write served" count;
      if observed t then emit t
        (Served
           {
             op = Rights.Write_op;
             src;
             segment;
             off;
             count;
             notified = notified && newest;
             cas_success = None;
           })

let deposit_burst t =
  let rx = t.rx in
  let segment = rx.segment in
  let notified = Segment.should_notify segment ~requested:rx.notify in
  deposit_extents t rx.src segment ~notified ~newest:true rx.extents;
  (if notified then
     Notification.post
       ?ctx:(Obs.Trace.serve_ctx rx.sv ~label:"notify")
       (Segment.notification segment)
       {
         Notification.src = rx.src;
         kind = Notification.Write_arrived;
         off = rx.off;
         count = rx.count;
       });
  served t

let rec receive_extents t =
  match t.rx.items with
  | [] -> deposit_burst t
  | (it : Wire.burst_item) :: _ ->
      charge_crypto_then t ~category:t.rx_request_category it.data.Wire.len
        extent_decrypted

and extent_decrypted t =
  let rx = t.rx in
  match rx.items with
  | [] -> assert false
  | (it : Wire.burst_item) :: rest ->
      rx.extents <- (it.off, received t ~swab:rx.swab it.data) :: rx.extents;
      rx.items <- rest;
      receive_extents t

let burst_received t =
  let rx = t.rx in
  match rx.items with
  | [] -> nack_write t ~off:0 ~count:0 Status.Bounds
  | first :: _ -> (
      match burst_rejection t rx.src ~seg:rx.seg ~gen:rx.gen rx.items with
      | Some (status, off, count) -> nack_write t ~off ~count status
      | None ->
          rx.segment <- Sim.Int_table.find t.exported rx.seg;
          rx.off <- first.Wire.off;
          rx.count <- Wire.burst_payload_bytes rx.items;
          rx.extents <- [];
          receive_extents t)

(* Serving a burst: one interrupt and one FIFO drain for the whole
   frame, every extent validated before any byte is deposited (the burst
   applies atomically or not at all — a single nack names the first
   offending extent), then each extent's decryption charged in frame
   order, then all deposits back-to-back with no CPU charge in between,
   so in simulated time the burst lands as a unit.  At most one
   notification is raised, covering the whole burst.  Uses [items]
   (the extents still to receive) and [extents] (those received); [off]
   and [count] are the first extent's offset and the burst's bytes. *)
let handle_write_burst t src ~seg ~gen ~notify ~swab items =
  let c = costs t and rx = t.rx in
  rx.src <- src;
  rx.seg <- seg;
  rx.gen <- gen;
  rx.notify <- notify;
  rx.swab <- swab;
  rx.items <- items;
  rx.sv <- Obs.Trace.serve_begin ~node:(nid t) ~name:"serve";
  charge t ~category:t.rx_request_category
    (Sim.Time.add
       (Sim.Time.add c.Cluster.Costs.rx_interrupt
          (rx_burst_cost c (Wire.burst_frame_bytes items)))
       c.Cluster.Costs.vm_deliver)
    burst_received

let transmit_reply t frame =
  Cluster.Node.transmit_frame
    ?ctx:(Obs.Trace.serve_ctx t.rx.sv ~label:"reply")
    t.node ~dst:t.rx.src frame

(* One READ reply chunk, from [pos]: the one copy of the data, segment
   memory straight into the reply frame, taken before the copy's CPU is
   charged.  A READ of nothing still sends one empty chunk. *)
let rec send_read_chunk t =
  let c = costs t and rx = t.rx in
  let segment = rx.segment in
  let len = Int.min (burst_data_bytes c) (rx.count - rx.pos) in
  let f = Wire.read_reply_frame t.frames ~reqid:rx.reqid ~chunk_off:rx.pos ~swab:rx.swab ~len in
  Cluster.Address_space.read_into (Segment.space segment)
    ~addr:(Segment.base segment + rx.off + rx.pos)
    ~len (Atm.Frame.payload f) ~pos:Wire.header_bytes;
  rx.reply <- f;
  rx.len <- len;
  charge t ~category:t.tx_reply_category
    (Sim.Time.add c.Cluster.Costs.vm_read (tx_data_cost c len))
    chunk_copied

and chunk_copied t =
  charge_crypto_then t ~category:t.tx_reply_category t.rx.len chunk_encrypted

and chunk_encrypted t =
  let rx = t.rx in
  (match t.crypto with
  | None -> ()
  | Some crypto ->
      let frame = Atm.Frame.payload rx.reply in
      Bytes.blit
        (Crypto.transform crypto ~pos:Wire.header_bytes ~len:rx.len frame)
        0 frame Wire.header_bytes rx.len);
  transmit_reply t rx.reply;
  rx.pos <- rx.pos + rx.len;
  if rx.pos < rx.count then send_read_chunk t else served t

let read_refused t =
  let rx = t.rx in
  Cluster.Node.transmit
    ?ctx:(Obs.Trace.serve_ctx rx.sv ~label:"reply")
    t.node ~dst:rx.src
    (Wire.encode
       (Wire.Read_reply
          {
            status = rx.status;
            reqid = rx.reqid;
            chunk_off = 0;
            swab = rx.swab;
            data = Wire.view Bytes.empty;
          }));
  served t

let read_received t =
  let c = costs t and rx = t.rx in
  let soff = rx.off and count = rx.count in
  match
    serve_status t ~src:rx.src ~seg:rx.seg ~gen:rx.gen ~off:soff ~count
      Rights.Read_op
  with
  | Status.Ok ->
      let segment = Sim.Int_table.find t.exported rx.seg in
      Metrics.Account.add_int t.data_bytes ~category:"read served" count;
      if observed t then emit t
        (Served
           {
             op = Rights.Read_op;
             src = rx.src;
             segment;
             off = soff;
             count;
             notified = Segment.should_notify segment ~requested:false;
             cas_success = None;
           });
      (if Segment.should_notify segment ~requested:false then
         (* An Always-notify segment also reports served reads. *)
         Notification.post
           ?ctx:(Obs.Trace.serve_ctx rx.sv ~label:"notify")
           (Segment.notification segment)
           {
             Notification.src = rx.src;
             kind = Notification.Read_served;
             off = soff;
             count;
           });
      rx.segment <- segment;
      rx.pos <- 0;
      send_read_chunk t
  | status ->
      record_error t status;
      if observed t then emit t
        (Serve_rejected
           { op = Rights.Read_op; src = rx.src; seg = rx.seg; gen = rx.gen;
             off = soff; count; status });
      Obs.Trace.serve_arg rx.sv "status" (Status.to_string status);
      rx.status <- status;
      charge t ~category:t.tx_reply_category (tx_ctrl_cost c 8) read_refused

(* A READ of [count] bytes at [off] of [segment] for [reqid], sent in
   reply chunks of at most a burst each: the chunk from [pos], [len]
   bytes, in [reply]. *)
let handle_read t src ~seg ~gen ~soff ~count ~reqid ~notify:_ ~swab =
  let c = costs t and rx = t.rx in
  rx.src <- src;
  rx.seg <- seg;
  rx.gen <- gen;
  rx.off <- soff;
  rx.count <- count;
  rx.reqid <- reqid;
  rx.swab <- swab;
  rx.sv <- Obs.Trace.serve_begin ~node:(nid t) ~name:"serve";
  charge t ~category:t.rx_request_category
    (Sim.Time.add
       (Sim.Time.add c.Cluster.Costs.rx_interrupt (rx_ctrl_cost c 14))
       c.Cluster.Costs.descriptor_check)
    read_received

let cas_replied t =
  let rx = t.rx in
  transmit_reply t
    (Wire.cas_reply_frame t.frames ~status:rx.status ~reqid:rx.reqid
       ~witness:rx.witness);
  served t

let reply_cas t ~status ~witness =
  t.rx.status <- status;
  t.rx.witness <- witness;
  charge t ~category:t.tx_reply_category (tx_ctrl_cost (costs t) 8) cas_replied

let cas_received t =
  let rx = t.rx in
  let doff = rx.off in
  match
    serve_status t ~src:rx.src ~seg:rx.seg ~gen:rx.gen ~off:doff ~count:4
      Rights.Cas_op
  with
  | Status.Ok ->
      let segment = Sim.Int_table.find t.exported rx.seg in
      let addr = Segment.base segment + doff in
      let witness =
        Cluster.Address_space.read_word (Segment.space segment) ~addr
      in
      let swapped =
        Cluster.Address_space.cas_word (Segment.space segment) ~addr
          ~old_value:rx.old_value ~new_value:rx.new_value
      in
      if observed t then emit t
        (Served
           {
             op = Rights.Cas_op;
             src = rx.src;
             segment;
             off = doff;
             count = 4;
             notified = Segment.should_notify segment ~requested:rx.notify;
             cas_success = Some swapped;
           });
      Obs.Trace.serve_arg rx.sv "cas" (string_of_bool swapped);
      (if Segment.should_notify segment ~requested:rx.notify then
         Notification.post
           ?ctx:(Obs.Trace.serve_ctx rx.sv ~label:"notify")
           (Segment.notification segment)
           {
             Notification.src = rx.src;
             kind = Notification.Cas_applied;
             off = doff;
             count = 4;
           });
      reply_cas t ~status:Status.Ok ~witness
  | status ->
      record_error t status;
      if observed t then emit t
        (Serve_rejected
           { op = Rights.Cas_op; src = rx.src; seg = rx.seg; gen = rx.gen;
             off = doff; count = 4; status });
      Obs.Trace.serve_arg rx.sv "status" (Status.to_string status);
      reply_cas t ~status ~witness:0

(* A CAS of the word at [off] from [old_value] to [new_value] for
   [reqid]; its reply carries [status] and [witness]. *)
let handle_cas t src ~seg ~gen ~doff ~old_value ~new_value ~reqid ~notify =
  let c = costs t and rx = t.rx in
  rx.src <- src;
  rx.seg <- seg;
  rx.gen <- gen;
  rx.off <- doff;
  rx.old_value <- old_value;
  rx.new_value <- new_value;
  rx.reqid <- reqid;
  rx.notify <- notify;
  rx.sv <- Obs.Trace.serve_begin ~node:(nid t) ~name:"serve";
  charge t ~category:t.rx_request_category
    (Sim.Time.add
       (Sim.Time.add c.Cluster.Costs.rx_interrupt (rx_ctrl_cost c 18))
       (Sim.Time.add c.Cluster.Costs.descriptor_check
          c.Cluster.Costs.cas_execute))
    cas_received

(* ------------------------------------------------------------------ *)
(* Reply handling at the requester.                                    *)

let read_completed t desc ~soff ~count status =
  if observed t then emit t
    (Completed
       { op = Rights.Read_op; desc; off = soff; count; status; cas_success = None })

(* Whether reply chunk [i] of a READ is counted for the first time, and
   mark it: a duplicated reply frame must not count twice towards the
   READ's byte total, or the READ would complete with a chunk missing.
   A READ that fits one chunk may have no bitmap (or a recycled one):
   it completes, and leaves the pending table, on its first reply. *)
let first_arrival chunks i =
  let byte = i lsr 3 in
  if byte >= Bytes.length chunks then true
  else
    let bits = Bytes.get_uint8 chunks byte in
    let bit = 1 lsl (i land 7) in
    bits land bit = 0
    && begin
         Bytes.set_uint8 chunks byte (bits lor bit);
         true
       end

let reply_decrypted t =
  let rx = t.rx in
  let p = rx.pending in
  deposit_received t ~swab:rx.swab p.buf.space
    ~addr:(p.buf.base + p.doff + rx.off)
    rx.payload ~pos:rx.pos ~len:rx.len;
  if first_arrival p.chunks (rx.off / burst_data_bytes (costs t)) then
    p.received <- p.received + rx.len;
  if p.received >= p.count then begin
    Sim.Int_table.remove t.pending rx.reqid;
    if p.notify then
      Notification.post
        ?ctx:(Obs.Trace.serve_ctx rx.sv ~label:"notify")
        t.completion_fd
        {
          Notification.src = rx.src;
          kind = Notification.Read_served;
          off = p.doff;
          count = p.count;
        };
    read_completed t p.desc ~soff:p.off ~count:p.count Status.Ok;
    Obs.Trace.root_close rx.sv ~status:"ok";
    fill p 0
  end;
  served t

(* The pending-table lookups below use [Sim.Int_table.find], not [find_opt]:
   every reply frame passes here, and the option would be allocated. *)
let reply_received t =
  let rx = t.rx in
  match Sim.Int_table.find t.pending rx.reqid with
  | exception Not_found -> served t (* late reply after a timeout: dropped *)
  | p when p.cas ->
      (* A READ reply matched a pending CAS: protocol violation. Fail
         the operation instead of leaving the issuer blocked forever. *)
      Sim.Int_table.remove t.pending rx.reqid;
      record_error t Status.Bad_segment;
      Obs.Trace.root_close rx.sv ~status:"mismatched";
      fill p (unserved Status.Bad_segment);
      served t
  | p ->
      if rx.status <> Status.Ok then begin
        Sim.Int_table.remove t.pending rx.reqid;
        record_error t rx.status;
        read_completed t p.desc ~soff:p.off ~count:p.count rx.status;
        Obs.Trace.root_close rx.sv ~status:(Status.to_string rx.status);
        fill p (unserved rx.status);
        served t
      end
      else begin
        rx.pending <- p;
        charge_crypto_then t ~category:t.client_category rx.len reply_decrypted
      end

(* A READ reply chunk: [len] bytes of [payload] from [pos], at [off] of
   the READ [reqid] (its record in [pending] once matched), or its
   [status]. *)
let handle_read_reply t src ~status ~reqid ~chunk_off ~swab payload ~pos ~len =
  let c = costs t and rx = t.rx in
  rx.src <- src;
  rx.status <- status;
  rx.reqid <- reqid;
  rx.off <- chunk_off;
  rx.swab <- swab;
  rx.payload <- payload;
  rx.pos <- pos;
  rx.len <- len;
  rx.sv <- Obs.Trace.serve_begin ~node:(nid t) ~name:"deliver";
  charge t ~category:t.client_category
    (Sim.Time.add
       (Sim.Time.add c.Cluster.Costs.rx_interrupt (rx_data_cost c len))
       (Sim.Time.add c.Cluster.Costs.reply_match c.Cluster.Costs.vm_deliver))
    reply_received

let cas_completed t =
  let rx = t.rx in
  let p = rx.pending and status = rx.status and witness = rx.witness in
  if observed t then emit t
    (Completed
       {
         op = Rights.Cas_op;
         desc = p.desc;
         off = p.off;
         count = 4;
         status;
         cas_success =
           Some (status = Status.Ok && witness = word32 p.old_value);
       });
  Obs.Trace.root_close rx.sv ~status:(Status.to_string status);
  fill p (if status = Status.Ok then witness else unserved status);
  served t

(* Deposit the paper's success/failure word locally. *)
let cas_deposited t =
  let p = t.rx.pending in
  let success = t.rx.witness = word32 p.old_value in
  Cluster.Address_space.write_word p.buf.space
    ~addr:(p.buf.base + p.doff)
    (if success then 1 else 0);
  cas_completed t

let cas_reply_received t =
  let rx = t.rx in
  match Sim.Int_table.find t.pending rx.reqid with
  | exception Not_found -> served t
  | p when not p.cas ->
      (* A CAS reply matched a pending READ: fail it rather than letting
         the issuer hang until its timeout (if it even set one). *)
      Sim.Int_table.remove t.pending rx.reqid;
      record_error t Status.Bad_segment;
      Obs.Trace.root_close rx.sv ~status:"mismatched";
      fill p (unserved Status.Bad_segment);
      served t
  | p ->
      Sim.Int_table.remove t.pending rx.reqid;
      if rx.status <> Status.Ok then record_error t rx.status;
      rx.pending <- p;
      if p.doff >= 0 && rx.status = Status.Ok then
        charge t ~category:t.client_category (costs t).Cluster.Costs.vm_deliver
          cas_deposited
      else cas_completed t

(* A CAS reply: [status] and [witness] for the CAS [reqid] (its record
   in [pending] once matched). *)
let handle_cas_reply t _src ~status ~reqid ~witness =
  let c = costs t and rx = t.rx in
  rx.status <- status;
  rx.reqid <- reqid;
  rx.witness <- witness;
  rx.sv <- Obs.Trace.serve_begin ~node:(nid t) ~name:"deliver";
  charge t ~category:t.client_category
    (Sim.Time.add
       (Sim.Time.add c.Cluster.Costs.rx_interrupt (rx_ctrl_cost c 8))
       c.Cluster.Costs.reply_match)
    cas_reply_received

let nack_received t =
  let rx = t.rx in
  record_error t rx.status;
  Sim.Int_table.replace t.write_failures
    (key ~remote:(Atm.Addr.to_int rx.src) ~seg:rx.seg ~gen:(Generation.to_int rx.gen))
    rx.status;
  if observed t then
    emit t
      (Nacked
         { src = rx.src;
           nack = { Wire.status = rx.status; seg = rx.seg; gen = rx.gen;
                    off = rx.off; count = rx.count } });
  Obs.Trace.root_close rx.sv ~status:(Status.to_string rx.status);
  served t

(* A write nack at the issuer: count it and remember the latest status
   per (destination, segment, generation) so a later [fence] or an
   explicit [take_write_failure] surfaces the loss to the caller. *)
let handle_write_nack t src ~status ~seg ~gen ~off ~count =
  let c = costs t and rx = t.rx in
  rx.src <- src;
  rx.status <- status;
  rx.seg <- seg;
  rx.gen <- gen;
  rx.off <- off;
  rx.count <- count;
  rx.sv <- Obs.Trace.serve_begin ~node:(nid t) ~name:"nack";
  charge t ~category:t.client_category
    (Sim.Time.add c.Cluster.Costs.rx_interrupt (rx_ctrl_cost c 12))
    nack_received

let handlers =
  {
    Wire.write = handle_write;
    read = handle_read;
    read_reply = handle_read_reply;
    cas = handle_cas;
    cas_reply = handle_cas_reply;
    write_nack = handle_write_nack;
    write_burst = handle_write_burst;
  }

let attach node =
  let t = create node in
  t.irq <- Some (Cluster.Node.charger node t);
  List.iter
    (fun tag ->
      Cluster.Node.set_interrupt_handler node ~tag (fun ~src payload ->
          Wire.dispatch handlers t src payload))
    Wire.tags;
  t
