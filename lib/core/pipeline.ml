(* The pipelined issue engine: decoupling *when* a meta-instruction is
   issued from *when* its effects must be visible.

   The synchronous paths in {!Remote_memory} pay the paper's Table-2
   costs per operation: one trap and one per-cell FIFO setup per WRITE
   frame, one blocked process per READ round trip.  Once data transfer
   carries no implicit control transfer, none of that serialization is
   semantically required — only [flush]/[fence] points are.  So this
   engine

   - stages WRITEs per (remote node, segment, generation) and sends each
     staging buffer as ONE scatter-gather burst frame
     ({!Remote_memory.write_burst}): one trap, one descriptor check, one
     FIFO setup per burst group, 48 payload bytes per cell;
   - keeps up to [window] READ/CAS meta-instructions in flight per
     (node, segment) instead of one, stalling only when the window
     fills;
   - coalesces notify bits so a flush raises at most one notification
     per segment (the destination segment's policy still decides);
   - preserves the synchronous path's ordering guarantees at [flush] /
     [fence]: links are FIFO, so once the burst is on the wire a fence
     round trip behind it proves deposit, exactly as for eager writes.

   Reads forward from the staging buffer discipline: a READ overlapping
   staged bytes flushes them first, so a process always observes its own
   program-order writes.  The differential suite holds all of this
   against the same script issued directly through {!Remote_memory}. *)

type config = { window : int; max_batch_bytes : int }

let pipelined_config ?(window = 8) ?(max_batch_bytes = 32768) () =
  if window < 1 then invalid_arg "Pipeline: window < 1";
  if max_batch_bytes < 1 then invalid_arg "Pipeline: empty batch bound";
  { window; max_batch_bytes }

(* A staging buffer also flushes after this many absorbed writes. *)
let max_batch_ops = 64

type stats = {
  mutable merged_extents : int;
  mutable flushes : int;
  mutable window_stalls : int;
}

(* One staging buffer: the WRITEs absorbed since the last flush toward
   one (remote, segment, generation), kept as a sorted list of merged,
   non-overlapping extents — exactly the scatter-gather list the burst
   frame will carry.  An extent keeps the writes it is made of, not a
   copy of their bytes: each staged byte is copied once, into the burst
   frame, when the buffer is flushed. *)
type staged = {
  desc : Descriptor.t;
  mutable extents : Wire.extent list;
  mutable bytes : int;
  mutable ops : int;
  mutable notify : bool;
}

(* The READs and CASes in flight toward one key, oldest first: a ring
   of [window] slots, made at the first issue (a completion has no
   placeholder value).  Retiring awaits, which recycles: a slot outside
   the [len] live ones may hold another issue's completion, unread. *)
type window = {
  key : int;
  mutable ring : Remote_memory.completion array;
  mutable head : int;
  mutable len : int;
}

(* Every table is keyed by {!Remote_memory.stream_key}: the (remote
   node, segment id, generation) as one int, in the triple's order. *)
type t = {
  rmem : Remote_memory.t;
  cfg : config;
  staged : staged Sim.Int_table.t;
  windows : window Sim.Int_table.t;
  mutable order : window array; (* every window by key, replaced on growth *)
  batches : int Sim.Int_table.t;
  (* the current window cycle's batch tag per key: a fresh batch opens
     whenever a submit finds its window empty, so every issue sharing a
     window cycle carries the same batch id in its Issued event *)
  stats : stats;
}

let create ~config rmem =
  {
    rmem;
    cfg = config;
    staged = Sim.Int_table.create 8;
    windows = Sim.Int_table.create 8;
    order = [||];
    batches = Sim.Int_table.create 8;
    stats =
      { merged_extents = 0; flushes = 0; window_stalls = 0 };
  }

let stats t =
  {
    merged_extents = t.stats.merged_extents;
    flushes = t.stats.flushes;
    window_stalls = t.stats.window_stalls;
  }

let nid t =
  Atm.Addr.to_int (Cluster.Node.addr (Remote_memory.node t.rmem))

let key_of = Remote_memory.stream_key

(* Insert one write into a sorted extent list, merging every extent it
   overlaps or abuts.  The new write is the newest of the merged
   extent's writes: within one staging buffer the last writer wins, as
   it would have on the wire.  The extents it merges are disjoint, so
   the order of their writes against each other does not matter. *)
let insert_extent extents ~off data ~merged =
  let lo = off and hi = off + Bytes.length data in
  let before, rest =
    List.partition (fun (e : Wire.extent) -> e.off + e.len < lo) extents
  in
  let touching, after =
    List.partition (fun (e : Wire.extent) -> e.off <= hi) rest
  in
  let write = (off, data) in
  match touching with
  | [] -> before @ ({ Wire.off; len = hi - lo; writes = [ write ] } :: after)
  | _ ->
      merged := !merged + List.length touching;
      let new_lo =
        List.fold_left (fun acc (e : Wire.extent) -> Int.min acc e.off) lo touching
      in
      let new_hi =
        List.fold_left
          (fun acc (e : Wire.extent) -> Int.max acc (e.off + e.len))
          hi touching
      in
      let writes =
        match touching with
        | [ e ] -> write :: e.writes
        | _ -> write :: List.concat_map (fun (e : Wire.extent) -> e.writes) touching
      in
      before @ ({ off = new_lo; len = new_hi - new_lo; writes } :: after)

let staged_overlaps s ~soff ~count =
  List.exists
    (fun (e : Wire.extent) -> e.off < soff + count && soff < e.off + e.len)
    s.extents

(* Send one staging buffer as a single burst frame. *)
let flush_key t key =
  match Sim.Int_table.find_opt t.staged key with
  | None -> ()
  | Some s ->
      Sim.Int_table.remove t.staged key;
      if s.extents <> [] then begin
        let scope =
          Obs.Trace.scope_begin ~node:(nid t) ~name:"pipeline:flush"
        in
        Fun.protect
          ~finally:(fun () -> Obs.Trace.scope_end scope)
          (fun () ->
            Remote_memory.write_burst t.rmem s.desc ~notify:s.notify
              s.extents);
        t.stats.flushes <- t.stats.flushes + 1
      end

let flush t desc = flush_key t (key_of desc)

let staged_for t desc =
  let key = key_of desc in
  match Sim.Int_table.find_opt t.staged key with
  | Some s -> s
  | None ->
      let s = { desc; extents = []; bytes = 0; ops = 0; notify = false } in
      Sim.Int_table.replace t.staged key s;
      s

let write t desc ~off ?(notify = false) data =
  if Bytes.length data = 0 then begin
    (* Doorbells keep their own frame and their own notification; staged
       writes they are ordered after go out first. *)
    flush_key t (key_of desc);
    Remote_memory.write t.rmem desc ~off ~notify data
  end
  else begin
    (* Validate eagerly so a bad write fails at the same program point
       as on the synchronous path, not at some later flush. *)
    Remote_memory.check_write t.rmem desc ~off ~count:(Bytes.length data);
    let s = staged_for t desc in
    let merged = ref 0 in
    s.extents <- insert_extent s.extents ~off data ~merged;
    t.stats.merged_extents <- t.stats.merged_extents + !merged;
    s.bytes <- List.fold_left (fun acc (e : Wire.extent) -> acc + e.len) 0 s.extents;
    s.ops <- s.ops + 1;
    if notify then s.notify <- true;
    if s.bytes >= t.cfg.max_batch_bytes || s.ops >= max_batch_ops then
      flush_key t (key_of desc)
  end

(* [find], not [find_opt], on the per-issue lookups: the option would
   be allocated on every issue. *)
let window_of t key =
  match Sim.Int_table.find t.windows key with
  | w -> w
  | exception Not_found ->
      let w = { key; ring = [||]; head = 0; len = 0 } in
      Sim.Int_table.replace t.windows key w;
      let order = Array.append t.order [| w |] in
      Array.sort (fun a b -> Int.compare a.key b.key) order;
      t.order <- order;
      w

let push t w c =
  if Array.length w.ring = 0 then w.ring <- Array.make t.cfg.window c;
  w.ring.((w.head + w.len) mod t.cfg.window) <- c;
  w.len <- w.len + 1

let pop t w =
  let c = w.ring.(w.head) in
  w.head <- (w.head + 1) mod t.cfg.window;
  w.len <- w.len - 1;
  c

let retire c = Status.check (Remote_memory.await c)

(* Retire everything in the window, then raise the first failure.
   Failures must not poison the window: if a retirement raised
   mid-window, the entries behind it would linger as stale state and the
   caller's *retry* would trip over them before it could issue anything
   fresh.  So every failing path empties the window first. *)
let rec retire_all t w first =
  if w.len > 0 then
    match retire (pop t w) with
    | () -> retire_all t w first
    | exception exn ->
        retire_all t w (if Option.is_none first then Some exn else first)
  else Option.iter raise first

(* Retire completed operations from the front of the window (awaiting
   them cannot block, but a failure still raises), then make room by
   waiting on the oldest until the window has a free slot.  On failure
   the whole window is drained before raising, so the caller retries
   from an empty window. *)
let window_admit t w =
  try
    while w.len > 0 && Remote_memory.completed w.ring.(w.head) do
      retire (pop t w)
    done;
    while w.len >= t.cfg.window do
      let c = pop t w in
      if not (Remote_memory.completed c) then
        t.stats.window_stalls <- t.stats.window_stalls + 1;
      retire c
    done
  with exn -> retire_all t w (Some exn)

(* The batch tag for the next windowed issue toward [key]: reuse the
   window cycle's tag while operations are still in flight, open a fresh
   one when the window has gone empty (each cycle of a caller's retry
   loop drains the window first, so one cycle = one batch = one logical
   attempt for the lint layer). *)
let window_batch t ~key ~w =
  match Sim.Int_table.find t.batches key with
  | b when w.len > 0 -> b
  | _ | (exception Not_found) ->
      let b = Remote_memory.fresh_batch t.rmem in
      Sim.Int_table.replace t.batches key b;
      b

let read_submit t desc ~soff ~count ~dst ~doff () =
  let key = key_of desc in
  (match Sim.Int_table.find_opt t.staged key with
  | Some s when staged_overlaps s ~soff ~count ->
      (* Store-buffer forwarding discipline: the read must observe the
         process's own earlier writes, so they go out first. *)
      flush_key t key
  | _ -> ());
  let w = window_of t key in
  window_admit t w;
  Remote_memory.set_batch t.rmem (window_batch t ~key ~w);
  match Remote_memory.read t.rmem desc ~soff ~count ~dst ~doff () with
  | c ->
      Remote_memory.set_batch t.rmem 0;
      push t w c
  | exception exn ->
      Remote_memory.set_batch t.rmem 0;
      raise exn

let cas_submit t desc ~doff ~old_value ~new_value () =
  let key = key_of desc in
  (* CAS is a synchronization point: staged writes it releases must be
     on the wire (FIFO links order them) before the CAS lands. *)
  flush_key t key;
  let w = window_of t key in
  window_admit t w;
  Remote_memory.set_batch t.rmem (window_batch t ~key ~w);
  match Remote_memory.cas_async t.rmem desc ~doff ~old_value ~new_value () with
  | c ->
      Remote_memory.set_batch t.rmem 0;
      push t w c
  | exception exn ->
      Remote_memory.set_batch t.rmem 0;
      raise exn

let cas t desc ~doff ~old_value ~new_value () =
  flush_key t (key_of desc);
  Remote_memory.cas_wait t.rmem desc ~doff ~old_value ~new_value ()

let drain_key t key =
  match Sim.Int_table.find_opt t.windows key with
  | None -> ()
  | Some w -> retire_all t w None

(* Retire the windows the drain found, in key order, then raise the
   first failure. *)
let rec drain_from t order i first =
  if i = Array.length order then Option.iter raise first
  else
    match retire_all t order.(i) None with
    | () -> drain_from t order (i + 1) first
    | exception exn ->
        drain_from t order (i + 1)
          (if Option.is_none first then Some exn else first)

let drain t = drain_from t t.order 0 None

let fence t desc =
  flush_key t (key_of desc);
  drain_key t (key_of desc);
  Remote_memory.fence t.rmem desc
