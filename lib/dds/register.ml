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
   non-response and retry. *)

let rpc_id = 0xC2

type replica = {
  rnode : Cluster.Node.t;
  rspace : Cluster.Address_space.t;
  rsegment : Rmem.Segment.t;
}

let charge node extra =
  let c = Cluster.Node.costs node in
  Cluster.Cpu.use (Cluster.Node.cpu node) ~category:Cluster.Cpu.cat_procedure
    (Sim.Time.add c.Cluster.Costs.rpc_stub extra)

let replica ~rmem ~amsg () =
  let rnode = Rmem.Remote_memory.node rmem in
  let rspace = Cluster.Node.new_address_space rnode in
  let rsegment =
    Rmem.Remote_memory.export rmem ~space:rspace ~base:0 ~len:Tag.cell_bytes
      ~rights:Rmem.Rights.all ~name:"dds.reg" ()
  in
  Call.serve amsg ~id:rpc_id (fun ~src:_ body ->
      let c = Cluster.Node.costs rnode in
      let reply st tagw v =
        let b = Bytes.create 12 in
        Bytes.set_int32_le b 0 st;
        Bytes.set_int32_le b 4 tagw;
        Bytes.set_int32_le b 8 v;
        b
      in
      if Bytes.length body < 12 then reply 4l 0l 0l
      else begin
        let op = Int32.to_int (Bytes.get_int32_le body 0) in
        let cur =
          Int32.of_int (Cluster.Address_space.read_word rspace ~addr:0)
        in
        match op with
        | 1 ->
            let v = Cluster.Address_space.read_word rspace ~addr:4 in
            charge rnode c.Cluster.Costs.hash_lookup;
            if Tag.is_busy cur then reply 3l 0l 0l
            else reply 0l cur (Int32.of_int v)
        | 2 ->
            let tagw = Bytes.get_int32_le body 4 in
            let value = Bytes.get_int32_le body 8 in
            if Tag.is_busy cur then begin
              charge rnode c.Cluster.Costs.cas_execute;
              reply 3l 0l 0l
            end
            else begin
              if Int32.compare tagw cur > 0 then begin
                Cluster.Address_space.write_word rspace ~addr:4
                  (Int32.to_int value);
                Cluster.Address_space.write_word rspace ~addr:0
                  (Int32.to_int tagw)
              end;
              charge rnode c.Cluster.Costs.cas_execute;
              reply 0l 0l 0l
            end
        | _ -> reply 4l 0l 0l
      end);
  { rnode; rspace; rsegment }

let replica_node r = r.rnode
let replica_space r = r.rspace
let replica_segment r = r.rsegment

let replica_key r =
  ( Atm.Addr.to_int (Cluster.Node.addr r.rnode),
    Rmem.Segment.id r.rsegment,
    Rmem.Generation.to_int (Rmem.Segment.generation r.rsegment) )

type t = {
  kind : Kind.t;
  rank : int;
  node : Cluster.Node.t;
  ep : Call.endpoint;
  planes : Plane.t array;
  homes : Atm.Addr.t array;
  quorum : int list;  (** replica indices this client can reach *)
  majority : int;
  write_back : bool;
  hook : Hook.t option;
  hkey : int * int * int;
  mutable cas_losses : int;
  mutable rpc_fallbacks : int;
}

let client ~rmem ~amsg ~kind ~rank ?policy ?hook ?(write_back = true) ?quorum
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
      (fun r ->
        Plane.connect rmem ?policy
          ~remote:(Cluster.Node.addr r.rnode)
          ~segment_id:(Rmem.Segment.id r.rsegment)
          ~generation:(Rmem.Segment.generation r.rsegment)
          ~size:Tag.cell_bytes ~scratch:Tag.cell_bytes ())
      replicas
  in
  {
    kind;
    rank;
    node = Rmem.Remote_memory.node rmem;
    ep = Call.endpoint amsg;
    planes;
    homes = Array.map (fun r -> Cluster.Node.addr r.rnode) replicas;
    quorum;
    majority;
    write_back;
    hook;
    hkey = replica_key replicas.(0);
    cas_losses = 0;
    rpc_fallbacks = 0;
  }

let cas_losses t = t.cas_losses
let rpc_fallbacks t = t.rpc_fallbacks
let node_id t = Atm.Addr.to_int (Cluster.Node.addr t.node)

let begin_hook t =
  match t.hook with
  | Some h -> h (Hook.Begin { node = node_id t })
  | None -> ()

(* The register's designated cell is replica 0's value word. *)
let commit_hook t op =
  match t.hook with
  | None -> ()
  | Some h ->
      let home, seg, gen = t.hkey in
      h (Hook.Commit { node = node_id t; home; seg; gen; word = 4; op })

(* DX collect: one parallel READ round over all replicas, retried until
   a majority answers with a released (non-busy) cell. *)

let read_timeout = Sim.Time.us 300

let dx_collect t =
  let rec round attempt =
    if attempt > 400 then raise Rmem.Status.Timeout;
    let ivs =
      List.map
        (fun k ->
          let p = t.planes.(k) in
          ( k,
            Rmem.Remote_memory.read ~timeout:read_timeout p.Plane.rmem
              p.Plane.desc ~soff:0 ~count:Tag.cell_bytes ~dst:p.Plane.buf
              ~doff:0 () ))
        t.quorum
    in
    let got = ref [] in
    List.iter
      (fun (k, iv) ->
        match Sim.Ivar.read iv with
        | Rmem.Status.Ok -> (
            let b =
              Cluster.Address_space.read t.planes.(k).Plane.space ~addr:0
                ~len:Tag.cell_bytes
            in
            match Tag.decode b with
            | Some (tag, v) -> got := (k, tag, v) :: !got
            | None -> ())
        | _ -> ())
      ivs;
    if List.length !got >= t.majority then !got
    else begin
      Sim.Proc.wait (Sim.Time.us 10);
      round (attempt + 1)
    end
  in
  round 0

let highest got =
  match got with
  | [] -> invalid_arg "Dds.Register.highest: empty quorum"
  | (_, tag0, v0) :: rest ->
      List.fold_left
        (fun (bt, bv) (_, tag, v) ->
          if Tag.compare tag bt > 0 then (tag, v) else (bt, bv))
        (tag0, v0) rest

(* DX conditional store to one replica. *)
let dx_store t k tag value =
  let p = t.planes.(k) in
  let packed = Tag.pack tag in
  let mine = Tag.busy_for t.rank in
  let deposit () = Plane.write p ~off:0 (Tag.encode tag value) in
  let rec go attempt =
    if attempt > 5000 then raise Rmem.Status.Timeout;
    let w0 = Plane.read_word p ~soff:0 in
    if Int32.equal w0 mine then deposit ()
    else if Tag.is_busy w0 then begin
      (* Another writer's claim: its releasing deposit is coming. *)
      Sim.Proc.wait (Sim.Time.us 5);
      go (attempt + 1)
    end
    else if Int32.compare w0 packed >= 0 then ()
    else begin
      let won, witness = Plane.cas p ~doff:0 ~old_value:w0 ~new_value:mine in
      if won then deposit ()
      else begin
        t.cas_losses <- t.cas_losses + 1;
        if Int32.equal witness mine then
          (* Our claim landed but the reply was lost (§3.7). *)
          deposit ()
        else begin
          Sim.Proc.wait (Sim.Time.us 2);
          go (attempt + 1)
        end
      end
    end
  in
  go 0

(* RPC phases. *)

let rpc_get t k =
  let b = Bytes.create 12 in
  Bytes.set_int32_le b 0 1l;
  match Call.call t.ep ~dst:t.homes.(k) ~id:rpc_id b with
  | exception Rmem.Status.Timeout -> None
  | r ->
      if Bytes.length r < 12 then None
      else if Int32.equal (Bytes.get_int32_le r 0) 0l then
        Some (Tag.unpack (Bytes.get_int32_le r 4), Bytes.get_int32_le r 8)
      else None

let rpc_collect t =
  let rec round attempt =
    if attempt > 64 then raise Rmem.Status.Timeout;
    let got = ref [] in
    List.iter
      (fun k ->
        match rpc_get t k with
        | Some (tag, v) -> got := (k, tag, v) :: !got
        | None -> ())
      t.quorum;
    if List.length !got >= t.majority then !got
    else begin
      Sim.Proc.wait (Sim.Time.us 10);
      round (attempt + 1)
    end
  in
  round 0

let rpc_set t k tag value =
  let b = Bytes.create 12 in
  Bytes.set_int32_le b 0 2l;
  Bytes.set_int32_le b 4 (Tag.pack tag);
  Bytes.set_int32_le b 8 value;
  let rec go attempt =
    if attempt > 64 then false
    else
      match Call.call t.ep ~dst:t.homes.(k) ~id:rpc_id b with
      | exception Rmem.Status.Timeout -> false
      | r ->
          if Bytes.length r >= 4 && Int32.equal (Bytes.get_int32_le r 0) 0l
          then true
          else begin
            Sim.Proc.wait (Sim.Time.us 5);
            go (attempt + 1)
          end
  in
  go 0

let collect t =
  match t.kind with
  | Kind.Dx | Kind.Hybrid -> dx_collect t
  | Kind.Rpc -> rpc_collect t

(* Push (tag, value) to every replica outside [skip]; a majority must
   end up holding it. *)
let store_all t tag value ~skip =
  if t.kind = Kind.Hybrid then t.rpc_fallbacks <- t.rpc_fallbacks + 1;
  let ok = ref 0 in
  List.iter
    (fun k ->
      if List.mem k skip then incr ok
      else
        match t.kind with
        | Kind.Dx ->
            dx_store t k tag value;
            incr ok
        | Kind.Rpc | Kind.Hybrid -> if rpc_set t k tag value then incr ok)
    t.quorum;
  if !ok < t.majority then raise Rmem.Status.Timeout

let read t =
  begin_hook t;
  let got = collect t in
  let tag, v = highest got in
  let have =
    List.filter_map
      (fun (k, tg, _) -> if Tag.compare tg tag = 0 then Some k else None)
      got
  in
  (* Write-back until a majority is known to hold the adopted pair, so
     no later read can observe an older one. *)
  if t.write_back && List.length have < t.majority then
    store_all t tag v ~skip:have;
  commit_hook t (Hook.Read v);
  v

let write t v =
  begin_hook t;
  let got = collect t in
  let mt, _ = highest got in
  let tag = { Tag.ts = mt.Tag.ts + 1; wr = t.rank } in
  store_all t tag v ~skip:[];
  commit_hook t (Hook.Write v);
  tag
