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
  mutable arm : unit -> unit; (* the watchdog's first event: schedules [expire] *)
  mutable expire : unit -> unit;
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
let cas_label = Sim.Engine.Quoted ("ivar", "rmem CAS completion")

let unarmed () = ()

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
  if not (completed c) then
    Sim.Wait.park c.wait ~resource:(if c.cas then cas_label else read_label);
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

(* The state of a node's remote memory; {!attach} also claims the
   protocol's frame tags, once the handlers are defined. *)
let create node =
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
    completions = { free = [||]; top = 0 };
    next_reqid = 1;
    completion_fd = Notification.create ~name:"completion fd" node;
    ops = Metrics.Account.create ~name:"rmem ops" ();
    data_bytes = Metrics.Account.create ~name:"rmem bytes" ();
    errors = Metrics.Account.create ~name:"rmem errors" ();
    crypto = None;
    write_failures = Sim.Int_table.create 4;
    recovery_depth = 0;
    fence_buf = buffer ~space:(scratch_space ()) ~base:0 ~len:4;
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

let charge_crypto t ~category bytes =
  match t.crypto with
  | None -> ()
  | Some crypto -> Cluster.Cpu.use (cpu t) ~category (Crypto.cost crypto ~bytes)

(* Received data as it is deposited: the view into the frame itself,
   unless decryption or the swab bit transforms it into a fresh buffer. *)
let received t ~category ~swab (v : Wire.view) =
  charge_crypto t ~category v.Wire.len;
  let v = crypt t v in
  if swab then Wire.view (Wire.swap_words ~pos:v.Wire.pos ~len:v.Wire.len v.Wire.buf)
  else v

let deposit space ~addr (v : Wire.view) =
  Cluster.Address_space.write_from space ~addr v.Wire.buf ~pos:v.Wire.pos
    ~len:v.Wire.len

(* [received] then [deposit] for the [len] bytes of a frame from [pos],
   building no view when the data is deposited as it came. *)
let deposit_received t ~category ~swab space ~addr buf ~pos ~len =
  match t.crypto with
  | None when not swab ->
      Cluster.Address_space.write_from space ~addr buf ~pos ~len
  | _ -> deposit space ~addr (received t ~category ~swab { Wire.buf; pos; len })

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

let outside buf ~off ~len = off < 0 || off + len > buf.len

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
let trap t fl ~ctrl =
  let c = costs t in
  Obs.Trace.phase fl "trap";
  Cluster.Cpu.use (cpu t) ~category:t.client_category
    (Sim.Time.add
       (Sim.Time.add c.Cluster.Costs.trap c.Cluster.Costs.descriptor_check)
       ctrl);
  Obs.Trace.phase_end fl

(* One WRITE frame: [len] bytes of [data] from [pos], framed before the
   FIFO copy is charged, so the frame holds the caller's bytes as they
   were at issue, not after the CPU wait. *)
let send_write_chunk t fl desc ~off ~notify ~swab data ~pos ~len =
  let seg = Descriptor.segment_id desc in
  let gen = Descriptor.generation desc in
  let frame =
    match t.crypto with
    | None ->
        Wire.write_frame t.frames ~seg ~gen ~off:(off + pos) ~notify ~swab data
          ~pos ~len
    | Some crypto ->
        Wire.write_frame t.frames ~seg ~gen ~off:(off + pos) ~notify ~swab
          (Crypto.transform crypto ~pos ~len data)
          ~pos:0 ~len
  in
  Obs.Trace.phase fl "nic";
  Cluster.Cpu.use (cpu t) ~category:t.client_category (tx_data_cost (costs t) len);
  charge_crypto t ~category:t.client_category len;
  Obs.Trace.phase_end fl;
  Cluster.Node.transmit_frame ?ctx:(Obs.Trace.wire_ctx fl) t.node
    ~dst:(Descriptor.remote desc) frame

(* The WRITE's frames from [pos] on, [burst] bytes each; the notify bit
   rides on the last. *)
let rec send_write_chunks t fl desc ~off ~notify ~swab data ~burst pos =
  let count = Bytes.length data in
  if pos < count then begin
    let len = Int.min burst (count - pos) in
    send_write_chunk t fl desc ~off ~notify:(notify && pos + len >= count) ~swab
      data ~pos ~len;
    send_write_chunks t fl desc ~off ~notify ~swab data ~burst (pos + len)
  end

let send_write t desc ~off ~notify ~swab data =
  let count = Bytes.length data in
  let fl =
    issue t desc Rights.Write_op ~name:"WRITE" ~off ~count ~notify ~cas_old:0
      ~cas_new:0 ~extents:[] ~local_outside:false
  in
  trap t fl ~ctrl:Sim.Time.zero;
  Metrics.Account.add t.ops ~category:"write" 1.;
  Metrics.Account.add_int t.data_bytes ~category:"write" count;
  if count = 0 then
    (* A zero-length write still sends its header cell — useful as a
       doorbell when combined with the notify bit. *)
    send_write_chunk t fl desc ~off ~notify ~swab data ~pos:0 ~len:0
  else
    send_write_chunks t fl desc ~off ~notify ~swab data
      ~burst:(burst_data_bytes (costs t)) 0

(* Encrypt each extent's data in the burst frame in place, charging the
   CPU it costs. *)
let rec crypt_extents t crypto frame pos = function
  | [] -> ()
  | (e : Wire.extent) :: rest ->
      charge_crypto t ~category:t.client_category e.len;
      let pos = pos + Wire.burst_item_header_bytes in
      Bytes.blit (Crypto.transform crypto ~pos ~len:e.len frame) 0 frame pos e.len;
      crypt_extents t crypto frame (pos + e.len) rest

(* A scatter-gather WRITE burst: several extents of one segment framed
   once at the AAL layer, so the whole batch costs one trap, one
   descriptor check and one FIFO setup per [burst_cells] group instead
   of per 40-byte-payload cell.  The monitor sees one Issued covering
   the total byte count; the serve side emits one Served per extent,
   which sum back to it.  Extents must be non-empty; overlapping
   extents deposit in list order (last writer wins). *)
let send_burst t desc ~notify ~swab (extents : Wire.extent list) =
  let c = costs t in
  let total = List.fold_left (fun acc (e : Wire.extent) -> acc + e.len) 0 extents in
  let fl =
    issue t desc Rights.Write_op ~name:"WRITE_BURST"
      ~off:(List.hd extents).off ~count:total ~notify ~cas_old:0
      ~cas_new:0 ~extents ~local_outside:false
  in
  trap t fl ~ctrl:Sim.Time.zero;
  Metrics.Account.add t.ops ~category:"write burst" 1.;
  Metrics.Account.add_int t.data_bytes ~category:"write" total;
  let frame =
    Wire.write_burst_frame t.frames ~seg:(Descriptor.segment_id desc)
      ~gen:(Descriptor.generation desc) ~notify ~swab extents
  in
  (match t.crypto with
  | None -> ()
  | Some crypto ->
      crypt_extents t crypto (Atm.Frame.payload frame) Wire.burst_header_bytes
        extents);
  Obs.Trace.phase fl "nic";
  Cluster.Cpu.use (cpu t) ~category:t.client_category
    (tx_burst_cost c (Atm.Frame.length frame));
  Obs.Trace.phase_end fl;
  Cluster.Node.transmit_frame
    ?ctx:(Obs.Trace.wire_ctx fl)
    t.node
    ~dst:(Descriptor.remote desc)
    frame

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
let arm_timeout t c = function
  | None -> ()
  | Some span ->
      let engine = Cluster.Node.engine t.node in
      if c.arm == unarmed then begin
        c.expire <- (fun () -> expire t c);
        c.arm <-
          (fun () ->
            Sim.Engine.schedule_at engine
              (Sim.Time.add (Sim.Engine.now engine) c.span)
              c.expire)
      end;
      c.span <- span;
      Sim.Engine.schedule engine c.arm

(* A READ's or CAS's record, pooled if one is free, with a fresh reqid. *)
let take t ~desc ~cas ~off ~count ~buf ~doff ~notify ~old_value ~timed =
  let p = t.completions and burst = burst_data_bytes (costs t) in
  let bytes = if count <= burst then 0 else ((count + burst - 1) / burst + 7) / 8 in
  let c =
    if p.top > 0 then begin
      p.top <- p.top - 1;
      p.free.(p.top)
    end
    else
      { pool = p; desc; cas; off; count; buf; doff; notify; old_value;
        reqid = 0; received = 0; chunks = Bytes.empty; outcome = empty;
        wait = Sim.Wait.create (); holds = 0;
        span = Sim.Time.zero; arm = unarmed; expire = unarmed }
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
  c.holds <- (if timed then 2 else 1);
  c

let send_read ?timeout t desc ~soff ~count ~dst ~doff ~notify ?(swab = false)
    () =
  let c = costs t in
  let fl =
    issue t desc Rights.Read_op ~name:"READ" ~off:soff ~count ~notify
      ~cas_old:0 ~cas_new:0 ~extents:[]
      ~local_outside:(outside dst ~off:doff ~len:count)
  in
  let completion =
    take t ~desc ~cas:false ~off:soff ~count ~buf:dst ~doff ~notify
      ~old_value:0 ~timed:(Option.is_some timeout)
  in
  Sim.Int_table.replace t.pending completion.reqid completion;
  trap t fl ~ctrl:(tx_ctrl_cost c 14);
  Metrics.Account.add t.ops ~category:"read" 1.;
  Metrics.Account.add_int t.data_bytes ~category:"read" count;
  Cluster.Node.transmit_frame
    ?ctx:(Obs.Trace.wire_ctx fl)
    t.node ~dst:(Descriptor.remote desc)
    (Wire.read_frame t.frames ~seg:(Descriptor.segment_id desc)
       ~gen:(Descriptor.generation desc) ~soff ~count ~reqid:completion.reqid
       ~notify ~swab);
  arm_timeout t completion timeout;
  completion

let read ?timeout t desc ~soff ~count ~dst ~doff () =
  send_read ?timeout t desc ~soff ~count ~dst ~doff ~notify:false ()

let send_cas ?timeout t desc ~doff ~old_value ~new_value ?result () =
  let c = costs t in
  let fl =
    issue t desc Rights.Cas_op ~name:"CAS" ~off:doff ~count:4 ~notify:false
      ~cas_old:old_value ~cas_new:new_value ~extents:[]
      ~local_outside:
        (match result with
        | Some (buf, off) -> outside buf ~off ~len:4
        | None -> false)
  in
  let completion =
    take t ~desc ~cas:true ~off:doff ~count:4
      ~buf:(match result with Some (buf, _) -> buf | None -> t.fence_buf)
      ~doff:(match result with Some (_, off) -> off | None -> -1)
      ~notify:false ~old_value ~timed:(Option.is_some timeout)
  in
  Sim.Int_table.replace t.pending completion.reqid completion;
  trap t fl ~ctrl:(tx_ctrl_cost c 18);
  Metrics.Account.add t.ops ~category:"cas" 1.;
  Cluster.Node.transmit_frame
    ?ctx:(Obs.Trace.wire_ctx fl)
    t.node ~dst:(Descriptor.remote desc)
    (Wire.cas_frame t.frames ~seg:(Descriptor.segment_id desc)
       ~gen:(Descriptor.generation desc) ~doff ~old_value ~new_value
       ~reqid:completion.reqid ~notify:false);
  arm_timeout t completion timeout;
  completion

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
    (await (send_read ?timeout t desc ~soff ~count ~dst ~doff ~notify ?swab ()))

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
  match policy with
  | None -> send_write t desc ~off ~notify ~swab data
  | Some policy ->
      run_policy t policy desc ~op:"WRITE" (fun timeout ->
          send_write t desc ~off ~notify ~swab data;
          verify_written ?timeout t desc ~swab ~off data)

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

(* The serve handlers below take the frame's fields as {!Wire.dispatch}
   reads them in place, and every helper they call is a top-level
   function: serving a request allocates no closure, option or message
   record. *)

(* A write this node cannot apply is data silently lost unless the
   issuer hears about it: report the drop with a negative ack (the
   success path stays unacknowledged, as in the paper). *)
let nack_write t sv src ~seg ~gen ~off ~count status =
  record_error t status;
  if observed t then
    emit t
      (Serve_rejected
         { op = Rights.Write_op; src; seg; gen; off; count; status });
  Obs.Trace.serve_arg sv "status" (Status.to_string status);
  Cluster.Cpu.use (cpu t) ~category:t.tx_reply_category
    (tx_ctrl_cost (costs t) 12);
  Cluster.Node.transmit
    ?ctx:(Obs.Trace.serve_ctx sv ~label:"nack")
    t.node ~dst:src
    (Wire.encode (Wire.Write_nack { status; seg; gen; off; count }));
  Obs.Trace.serve_end sv

let handle_write t src ~seg ~gen ~off ~notify ~swab payload ~pos ~len =
  let c = costs t in
  let sv = Obs.Trace.serve_begin ~node:(nid t) ~name:"serve" in
  Cluster.Cpu.use (cpu t) ~category:t.rx_request_category
    (Sim.Time.add
       (Sim.Time.add c.Cluster.Costs.rx_interrupt (rx_data_cost c len))
       c.Cluster.Costs.vm_deliver);
  match serve_status t ~src ~seg ~gen ~off ~count:len Rights.Write_op with
  | Status.Ok ->
      let segment = Sim.Int_table.find t.exported seg in
      if Segment.write_inhibited segment then
        nack_write t sv src ~seg ~gen ~off ~count:len Status.Write_inhibited
      else begin
        deposit_received t ~category:t.rx_request_category ~swab
          (Segment.space segment)
          ~addr:(Segment.base segment + off)
          payload ~pos ~len;
        Metrics.Account.add_int t.data_bytes ~category:"write served" len;
        let notified = Segment.should_notify segment ~requested:notify in
        if observed t then emit t
          (Served
             {
               op = Rights.Write_op;
               src;
               segment;
               off;
               count = len;
               notified;
               cas_success = None;
             });
        (if notified then
           Notification.post
             ?ctx:(Obs.Trace.serve_ctx sv ~label:"notify")
             (Segment.notification segment)
             {
               Notification.src;
               kind = Notification.Write_arrived;
               off;
               count = len;
             });
        Obs.Trace.serve_end sv
      end
  | status -> nack_write t sv src ~seg ~gen ~off ~count:len status

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

(* Each extent's data as it is deposited, in frame order. *)
let rec received_extents t ~swab = function
  | [] -> []
  | (it : Wire.burst_item) :: rest ->
      let data = received t ~category:t.rx_request_category ~swab it.data in
      (it.off, data) :: received_extents t ~swab rest

(* Deposit extents [i] onwards; the notification, if any, is reported
   on the last one, [last]. *)
let rec deposit_extents t src segment ~notified ~last i = function
  | [] -> ()
  | (off, (data : Wire.view)) :: rest ->
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
             notified = notified && i = last;
             cas_success = None;
           });
      deposit_extents t src segment ~notified ~last (i + 1) rest

(* Serving a burst: one interrupt and one FIFO drain for the whole
   frame, every extent validated before any byte is deposited (the burst
   applies atomically or not at all — a single nack names the first
   offending extent), then all deposits happen back-to-back with no CPU
   charge in between, so in simulated time the burst lands as a unit.
   At most one notification is raised, covering the whole burst. *)
let handle_write_burst t src ~seg ~gen ~notify ~swab items =
  let c = costs t in
  let total = Wire.burst_payload_bytes items in
  let sv = Obs.Trace.serve_begin ~node:(nid t) ~name:"serve" in
  Cluster.Cpu.use (cpu t) ~category:t.rx_request_category
    (Sim.Time.add
       (Sim.Time.add c.Cluster.Costs.rx_interrupt
          (rx_burst_cost c (Wire.burst_frame_bytes items)))
       c.Cluster.Costs.vm_deliver);
  match items with
  | [] -> nack_write t sv src ~seg ~gen ~off:0 ~count:0 Status.Bounds
  | first :: _ -> (
      match burst_rejection t src ~seg ~gen items with
      | Some (status, off, count) ->
          nack_write t sv src ~seg ~gen ~off ~count status
      | None ->
          let segment = Sim.Int_table.find t.exported seg in
          let extents = received_extents t ~swab items in
          let notified = Segment.should_notify segment ~requested:notify in
          deposit_extents t src segment ~notified
            ~last:(List.length extents - 1)
            0 extents;
          (if notified then
             Notification.post
               ?ctx:(Obs.Trace.serve_ctx sv ~label:"notify")
               (Segment.notification segment)
               {
                 Notification.src;
                 kind = Notification.Write_arrived;
                 off = first.Wire.off;
                 count = total;
               });
          Obs.Trace.serve_end sv)

let transmit_reply t sv src frame =
  Cluster.Node.transmit_frame
    ?ctx:(Obs.Trace.serve_ctx sv ~label:"reply")
    t.node ~dst:src frame

(* One READ reply chunk: the one copy of the data, segment memory
   straight into the reply frame, taken before the copy's CPU is
   charged. *)
let send_read_chunk t sv src segment ~soff ~reqid ~swab ~pos ~len =
  let c = costs t in
  let f = Wire.read_reply_frame t.frames ~reqid ~chunk_off:pos ~swab ~len in
  let frame = Atm.Frame.payload f in
  Cluster.Address_space.read_into (Segment.space segment)
    ~addr:(Segment.base segment + soff + pos)
    ~len frame ~pos:Wire.header_bytes;
  Cluster.Cpu.use (cpu t) ~category:t.tx_reply_category
    (Sim.Time.add c.Cluster.Costs.vm_read (tx_data_cost c len));
  charge_crypto t ~category:t.tx_reply_category len;
  (match t.crypto with
  | None -> ()
  | Some crypto ->
      Bytes.blit
        (Crypto.transform crypto ~pos:Wire.header_bytes ~len frame)
        0 frame Wire.header_bytes len);
  transmit_reply t sv src f

(* The READ's reply chunks from [pos] on, [burst] bytes each. *)
let rec send_read_chunks t sv src segment ~soff ~count ~reqid ~swab ~burst pos =
  if pos < count then begin
    let len = Int.min burst (count - pos) in
    send_read_chunk t sv src segment ~soff ~reqid ~swab ~pos ~len;
    send_read_chunks t sv src segment ~soff ~count ~reqid ~swab ~burst
      (pos + len)
  end

let handle_read t src ~seg ~gen ~soff ~count ~reqid ~notify:_ ~swab =
  let c = costs t in
  let sv = Obs.Trace.serve_begin ~node:(nid t) ~name:"serve" in
  Cluster.Cpu.use (cpu t) ~category:t.rx_request_category
    (Sim.Time.add
       (Sim.Time.add c.Cluster.Costs.rx_interrupt (rx_ctrl_cost c 14))
       c.Cluster.Costs.descriptor_check);
  match serve_status t ~src ~seg ~gen ~off:soff ~count Rights.Read_op with
  | Status.Ok ->
      let segment = Sim.Int_table.find t.exported seg in
      Metrics.Account.add_int t.data_bytes ~category:"read served" count;
      if observed t then emit t
        (Served
           {
             op = Rights.Read_op;
             src;
             segment;
             off = soff;
             count;
             notified = Segment.should_notify segment ~requested:false;
             cas_success = None;
           });
      (if Segment.should_notify segment ~requested:false then
         (* An Always-notify segment also reports served reads. *)
         Notification.post
           ?ctx:(Obs.Trace.serve_ctx sv ~label:"notify")
           (Segment.notification segment)
           {
             Notification.src;
             kind = Notification.Read_served;
             off = soff;
             count;
           });
      (if count = 0 then
         send_read_chunk t sv src segment ~soff ~reqid ~swab ~pos:0 ~len:0
       else
         send_read_chunks t sv src segment ~soff ~count ~reqid ~swab
           ~burst:(burst_data_bytes c) 0);
      Obs.Trace.serve_end sv
  | status ->
      record_error t status;
      if observed t then emit t
        (Serve_rejected
           { op = Rights.Read_op; src; seg; gen; off = soff; count; status });
      Obs.Trace.serve_arg sv "status" (Status.to_string status);
      Cluster.Cpu.use (cpu t) ~category:t.tx_reply_category (tx_ctrl_cost c 8);
      Cluster.Node.transmit
        ?ctx:(Obs.Trace.serve_ctx sv ~label:"reply")
        t.node ~dst:src
        (Wire.encode
           (Wire.Read_reply
              {
                status;
                reqid;
                chunk_off = 0;
                swab;
                data = Wire.view Bytes.empty;
              }));
      Obs.Trace.serve_end sv

let reply_cas t sv src ~reqid ~status ~witness =
  Cluster.Cpu.use (cpu t) ~category:t.tx_reply_category
    (tx_ctrl_cost (costs t) 8);
  transmit_reply t sv src
    (Wire.cas_reply_frame t.frames ~status ~reqid ~witness);
  Obs.Trace.serve_end sv

let handle_cas t src ~seg ~gen ~doff ~old_value ~new_value ~reqid ~notify =
  let c = costs t in
  let sv = Obs.Trace.serve_begin ~node:(nid t) ~name:"serve" in
  Cluster.Cpu.use (cpu t) ~category:t.rx_request_category
    (Sim.Time.add
       (Sim.Time.add c.Cluster.Costs.rx_interrupt (rx_ctrl_cost c 18))
       (Sim.Time.add c.Cluster.Costs.descriptor_check
          c.Cluster.Costs.cas_execute));
  match serve_status t ~src ~seg ~gen ~off:doff ~count:4 Rights.Cas_op with
  | Status.Ok ->
      let segment = Sim.Int_table.find t.exported seg in
      let addr = Segment.base segment + doff in
      let witness =
        Cluster.Address_space.read_word (Segment.space segment) ~addr
      in
      let swapped =
        Cluster.Address_space.cas_word (Segment.space segment) ~addr
          ~old_value ~new_value
      in
      if observed t then emit t
        (Served
           {
             op = Rights.Cas_op;
             src;
             segment;
             off = doff;
             count = 4;
             notified = Segment.should_notify segment ~requested:notify;
             cas_success = Some swapped;
           });
      Obs.Trace.serve_arg sv "cas" (string_of_bool swapped);
      (if Segment.should_notify segment ~requested:notify then
         Notification.post
           ?ctx:(Obs.Trace.serve_ctx sv ~label:"notify")
           (Segment.notification segment)
           {
             Notification.src;
             kind = Notification.Cas_applied;
             off = doff;
             count = 4;
           });
      reply_cas t sv src ~reqid ~status:Status.Ok ~witness
  | status ->
      record_error t status;
      if observed t then emit t
        (Serve_rejected
           { op = Rights.Cas_op; src; seg; gen; off = doff; count = 4; status });
      Obs.Trace.serve_arg sv "status" (Status.to_string status);
      reply_cas t sv src ~reqid ~status ~witness:0

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

(* The pending-table lookups below use [Sim.Int_table.find], not [find_opt]:
   every reply frame passes here, and the option would be allocated. *)
let handle_read_reply t src ~status ~reqid ~chunk_off ~swab payload ~pos ~len =
  let c = costs t in
  let sv = Obs.Trace.serve_begin ~node:(nid t) ~name:"deliver" in
  Cluster.Cpu.use (cpu t) ~category:t.client_category
    (Sim.Time.add
       (Sim.Time.add c.Cluster.Costs.rx_interrupt (rx_data_cost c len))
       (Sim.Time.add c.Cluster.Costs.reply_match c.Cluster.Costs.vm_deliver));
  (match Sim.Int_table.find t.pending reqid with
  | exception Not_found -> () (* late reply after a timeout: dropped *)
  | p when p.cas ->
      (* A READ reply matched a pending CAS: protocol violation. Fail
         the operation instead of leaving the issuer blocked forever. *)
      Sim.Int_table.remove t.pending reqid;
      record_error t Status.Bad_segment;
      Obs.Trace.root_close sv ~status:"mismatched";
      fill p (unserved Status.Bad_segment)
  | p ->
      if status <> Status.Ok then begin
        Sim.Int_table.remove t.pending reqid;
        record_error t status;
        read_completed t p.desc ~soff:p.off ~count:p.count status;
        Obs.Trace.root_close sv ~status:(Status.to_string status);
        fill p (unserved status)
      end
      else begin
        deposit_received t ~category:t.client_category ~swab p.buf.space
          ~addr:(p.buf.base + p.doff + chunk_off)
          payload ~pos ~len;
        if first_arrival p.chunks (chunk_off / burst_data_bytes c) then
          p.received <- p.received + len;
        if p.received >= p.count then begin
          Sim.Int_table.remove t.pending reqid;
          if p.notify then
            Notification.post
              ?ctx:(Obs.Trace.serve_ctx sv ~label:"notify")
              t.completion_fd
              {
                Notification.src;
                kind = Notification.Read_served;
                off = p.doff;
                count = p.count;
              };
          read_completed t p.desc ~soff:p.off ~count:p.count Status.Ok;
          Obs.Trace.root_close sv ~status:"ok";
          fill p 0
        end
      end);
  Obs.Trace.serve_end sv

let handle_cas_reply t _src ~status ~reqid ~witness =
  let c = costs t in
  let sv = Obs.Trace.serve_begin ~node:(nid t) ~name:"deliver" in
  Cluster.Cpu.use (cpu t) ~category:t.client_category
    (Sim.Time.add
       (Sim.Time.add c.Cluster.Costs.rx_interrupt (rx_ctrl_cost c 8))
       c.Cluster.Costs.reply_match);
  (match Sim.Int_table.find t.pending reqid with
  | exception Not_found -> ()
  | p when not p.cas ->
      (* A CAS reply matched a pending READ: fail it rather than letting
         the issuer hang until its timeout (if it even set one). *)
      Sim.Int_table.remove t.pending reqid;
      record_error t Status.Bad_segment;
      Obs.Trace.root_close sv ~status:"mismatched";
      fill p (unserved Status.Bad_segment)
  | p ->
      Sim.Int_table.remove t.pending reqid;
      if status <> Status.Ok then record_error t status;
      if p.doff >= 0 && status = Status.Ok then begin
        (* Deposit the paper's success/failure word locally. *)
        Cluster.Cpu.use (cpu t) ~category:t.client_category
          c.Cluster.Costs.vm_deliver;
        let success = witness = word32 p.old_value in
        Cluster.Address_space.write_word p.buf.space
          ~addr:(p.buf.base + p.doff)
          (if success then 1 else 0)
      end;
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
      Obs.Trace.root_close sv ~status:(Status.to_string status);
      fill p (if status = Status.Ok then witness else unserved status));
  Obs.Trace.serve_end sv

(* A write nack at the issuer: count it and remember the latest status
   per (destination, segment, generation) so a later [fence] or an
   explicit [take_write_failure] surfaces the loss to the caller. *)
let handle_write_nack t src ~status ~seg ~gen ~off ~count =
  let c = costs t in
  let sv = Obs.Trace.serve_begin ~node:(nid t) ~name:"nack" in
  Cluster.Cpu.use (cpu t) ~category:t.client_category
    (Sim.Time.add c.Cluster.Costs.rx_interrupt (rx_ctrl_cost c 12));
  record_error t status;
  Sim.Int_table.replace t.write_failures
    (key ~remote:(Atm.Addr.to_int src) ~seg ~gen:(Generation.to_int gen))
    status;
  if observed t then
    emit t (Nacked { src; nack = { Wire.status; seg; gen; off; count } });
  Obs.Trace.root_close sv ~status:(Status.to_string status);
  Obs.Trace.serve_end sv

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
  List.iter
    (fun tag ->
      Cluster.Node.set_handler node ~tag (fun ~src payload ->
          Wire.dispatch handlers t src payload))
    Wire.tags;
  t
