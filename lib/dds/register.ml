(* The (N,N)-atomic register: majority-quorum read/write over an odd
   set of single-cell replicas (ABD).

   Each replica exports one 8-byte cell, [packed tag word][value word]
   ({!Tag}).  A write collects tags from a majority, picks
   (max ts + 1, own rank), and pushes the new cell to the replicas; a
   read collects (tag, value) pairs from a majority, adopts the highest,
   and — before returning — writes that pair back until a majority is
   known to store it, so any later read's majority intersects one
   up-to-date replica and no new/old inversion is observable.  The
   seeded model-checking variant disables exactly that write-back phase
   ([~write_back:false]).

   The DX conditional store claims a replica by CASing its tag word to
   the writer's rank-specific {!Tag.busy_for} sentinel, then releases it
   with one atomic 8-byte WRITE of the new cell; a cell already at or
   past the new tag is left alone.  Readers treat a busy cell as a
   non-response and retry.

   Tag and value words are ints inside — the 32 bits, sign-extended;
   packed tags order as ints — and values become int32s only at the
   client-facing operations. *)

let rpc_id = 0xC2

type replica = Plane.home

let word = Call.word
let set_word = Call.set_word

(* Write a request or reply: op or status, tag and value words. *)
let payload b op tagw v =
  set_word b 0 op;
  set_word b 4 tagw;
  set_word b 8 v

let serve (h : replica) ~src:_ body ~pos ~len ~(reply : Call.reply) =
  let c = Cluster.Node.costs h.hnode and b = reply.buf in
  reply.len <- 12;
  if len < 12 then (payload b 4 0 0; Sim.Time.zero)
  else begin
    let op = word body pos in
    let cur = Cluster.Address_space.read_word h.hspace ~addr:0 in
    match op with
    | 1 ->
        let v = Cluster.Address_space.read_word h.hspace ~addr:4 in
        if Tag.is_busy cur then payload b 3 0 0 else payload b 0 cur v;
        Plane.charge h c.Cluster.Costs.hash_lookup
    | 2 ->
        let tagw = word body (pos + 4) in
        let value = word body (pos + 8) in
        if Tag.is_busy cur then payload b 3 0 0
        else begin
          if tagw > cur then begin
            Cluster.Address_space.write_word h.hspace ~addr:4 value;
            Cluster.Address_space.write_word h.hspace ~addr:0 tagw
          end;
          payload b 0 0 0
        end;
        Plane.charge h c.Cluster.Costs.cas_execute
    | _ -> payload b 4 0 0; Sim.Time.zero
  end

let replica ~rmem ~amsg () =
  Plane.home rmem amsg ~name:"dds.reg" ~len:Tag.cell_bytes ~id:rpc_id serve

let replica_node (r : replica) = r.hnode
let replica_space (r : replica) = r.hspace
let replica_segment (r : replica) = r.segment

type t = {
  c : Plane.client;  (** over replica 0's plane, the designated cell's *)
  rank : int;
  planes : Plane.t array;
  quorum : int array;  (** replica indices this client can reach *)
  majority : int;
  write_back : bool;
  mutable reads : Rmem.Remote_memory.completion array;
      (** a DX collect round's READs, each awaited (so recycled) once in
          its round; empty before the first round *)
  tags : int array;
      (** per replica, the tag word the last collect got, or [no_tag] *)
  values : int array;  (** ... and the value word beside it *)
}

(* No packed tag is negative. *)
let no_tag = -1

let client ~rmem ~amsg ~kind ~rank ?policy ?(write_back = true) ?quorum
    replicas =
  let n = Array.length replicas in
  if n = 0 then invalid_arg "Dds.Register.client: no replicas";
  if rank < 0 || rank >= Tag.ranks then
    invalid_arg "Dds.Register.client: rank out of range";
  let majority = (n / 2) + 1 in
  let quorum =
    match quorum with
    | None -> List.init n Fun.id
    | Some q ->
        let q = List.sort_uniq compare q in
        if List.exists (fun k -> k < 0 || k >= n) q then
          invalid_arg "Dds.Register.client: quorum index out of range";
        if List.length q < majority then
          invalid_arg "Dds.Register.client: quorum smaller than a majority";
        q
  in
  let planes =
    Array.map
      (fun r -> Plane.connect rmem ?policy r ~scratch:Tag.cell_bytes)
      replicas
  in
  {
    c = Plane.client amsg ~kind ~request:12 planes.(0);
    rank;
    planes;
    quorum = Array.of_list quorum;
    majority;
    write_back;
    reads = [||];
    tags = Array.make n no_tag;
    values = Array.make n 0;
  }

let cas_losses t = t.c.cas_losses
let rpc_fallbacks t = t.c.rpc_fallbacks

(* A collect fills [t.tags] and [t.values] for the replicas that answer
   with a released (non-busy) cell, retrying until a majority do.  The
   DX collect is one parallel READ round over all replicas. *)

let read_timeout = Sim.Time.us 300

let dx_collect t ~budget:_ _ _ =
  let rec round attempt =
    if attempt > 400 then raise Rmem.Status.Timeout;
    for i = 0 to Array.length t.quorum - 1 do
      let p = t.planes.(t.quorum.(i)) in
      let read =
        Rmem.Remote_memory.read ~timeout:read_timeout p.Plane.rmem
          p.Plane.desc ~soff:0 ~count:Tag.cell_bytes ~dst:p.Plane.buf ~doff:0
          ()
      in
      if Array.length t.reads = 0 then
        t.reads <- Array.make (Array.length t.planes) read;
      t.reads.(t.quorum.(i)) <- read
    done;
    let got = ref 0 in
    for i = 0 to Array.length t.quorum - 1 do
      let k = t.quorum.(i) in
      t.tags.(k) <- no_tag;
      match Rmem.Remote_memory.await t.reads.(k) with
      | Rmem.Status.Ok ->
          let p = t.planes.(k) in
          let w = Plane.word p ~off:0 in
          if not (Tag.is_busy w) then begin
            t.tags.(k) <- w;
            t.values.(k) <- Plane.word p ~off:4;
            incr got
          end
      | _ -> ()
    done;
    if !got < t.majority then begin
      Sim.Proc.wait (Sim.Time.us 10);
      round (attempt + 1)
    end
  in
  round 0;
  0

(* The replica holding the highest collected tag: of equal tags, the
   last in quorum order. *)
let highest t =
  let best = ref (-1) in
  for i = 0 to Array.length t.quorum - 1 do
    let k = t.quorum.(i) in
    if t.tags.(k) <> no_tag && (!best < 0 || t.tags.(k) >= t.tags.(!best)) then
      best := k
  done;
  if !best < 0 then invalid_arg "Dds.Register.highest: empty quorum";
  !best

(* Release a claimed replica cell with the new pair. *)
let release p packed value =
  Plane.write p ~off:0 (Tag.encode packed value);
  true

(* DX conditional store to replica [k], from attempt [attempt]. *)
let rec dx_set t k packed value attempt =
  if attempt > 5000 then raise Rmem.Status.Timeout;
  let p = t.planes.(k) in
  let mine = Tag.busy_for t.rank in
  let w0 = Plane.read_word p ~soff:0 in
  if w0 = mine then release p packed value
  else if Tag.is_busy w0 then begin
    (* Another writer's claim: its releasing deposit is coming. *)
    Sim.Proc.wait (Sim.Time.us 5);
    dx_set t k packed value (attempt + 1)
  end
  else if w0 >= packed then true
  else begin
    let witness = Plane.cas p ~doff:0 ~old_value:w0 ~new_value:mine in
    if witness = w0 then release p packed value
    else begin
      t.c.cas_losses <- t.c.cas_losses + 1;
      if witness = mine then
        (* Our claim landed but the reply was lost (§3.7). *)
        release p packed value
      else begin
        Sim.Proc.wait (Sim.Time.us 2);
        dx_set t k packed value (attempt + 1)
      end
    end
  end

(* RPC phases. *)

(* The reply's length, or -1 for a call that timed out. *)
let rpc t k =
  match Plane.call t.c t.planes.(k) ~id:rpc_id with
  | n -> n
  | exception Rmem.Status.Timeout -> -1

let rpc_get t k =
  let c = t.c in
  t.tags.(k) <- no_tag;
  payload c.request 1 0 0;
  rpc t k >= 12
  && word c.reply 0 = 0
  && begin
       t.tags.(k) <- word c.reply 4;
       t.values.(k) <- word c.reply 8;
       true
     end

let rpc_collect t _ _ =
  let rec round attempt =
    if attempt > 64 then raise Rmem.Status.Timeout;
    let got = ref 0 in
    for i = 0 to Array.length t.quorum - 1 do
      if rpc_get t t.quorum.(i) then incr got
    done;
    if !got < t.majority then begin
      Sim.Proc.wait (Sim.Time.us 10);
      round (attempt + 1)
    end
  in
  round 0;
  0

(* Store (packed, value) at replica [k], waiting out a busy cell, from
   attempt [attempt]; false if a call times out. *)
let rec rpc_set t k packed value attempt =
  payload t.c.request 2 packed value;
  if attempt > 64 then false
  else
    let n = rpc t k in
    if n < 0 then false
    else if n >= 4 && word t.c.reply 0 = 0 then true
    else begin
      Sim.Proc.wait (Sim.Time.us 5);
      rpc_set t k packed value (attempt + 1)
    end

(* The store phase: push (packed, value) with [set] to every replica
   the last collect did not find already holding it (a write's new tag
   is above every collected one, so it skips none); a majority must
   end up holding it. *)
let store set t packed value =
  let ok = ref 0 in
  for i = 0 to Array.length t.quorum - 1 do
    let k = t.quorum.(i) in
    if t.tags.(k) = packed || set t k packed value 0 then incr ok
  done;
  if !ok < t.majority then raise Rmem.Status.Timeout;
  0

let dx_store t ~budget:_ packed value = store dx_set t packed value
let rpc_store t packed value = store rpc_set t packed value

(* Hybrid collects over the data plane and stores over RPC. *)
let collect t =
  ignore
    (Plane.phase t.c Plane.Dx_outright ~dx:dx_collect ~rpc:rpc_collect t 0 0
      : int)

let store_phase t packed value =
  ignore
    (Plane.phase t.c Plane.Rpc_outright ~dx:dx_store ~rpc:rpc_store t packed
       value
      : int)

(* The register's designated cell is replica 0's value word. *)
let read t =
  Plane.op_begin t.c;
  collect t;
  let best = highest t in
  let packed = t.tags.(best) and v = t.values.(best) in
  let holders = ref 0 in
  for i = 0 to Array.length t.quorum - 1 do
    if t.tags.(t.quorum.(i)) = packed then incr holders
  done;
  (* Write-back until a majority is known to hold the adopted pair, so
     no later read can observe an older one. *)
  if t.write_back && !holders < t.majority then store_phase t packed v;
  Plane.op_commit t.c ~word:4 ~read:true v;
  Int32.of_int v

let write t v =
  let v = Int32.to_int v in
  Plane.op_begin t.c;
  collect t;
  let mt = Tag.unpack t.tags.(highest t) in
  let tag = { Tag.ts = mt.Tag.ts + 1; wr = t.rank } in
  store_phase t (Tag.pack tag) v;
  Plane.op_commit t.c ~word:4 ~read:false v;
  tag
