(* The example workloads, each written once (see the .mli).  Every
   body follows its example line for line; the narration is [say], and
   the recovery hooks wrap what a fault run must retry: the name-service
   calls ([retry]) and the data operations ([policy]).  Outside a
   campaign they are the example's own settings, so the run is the
   example's, event for event. *)

type verdict = (unit, string) result

type rig = {
  testbed : Cluster.Testbed.t;
  rmems : Rmem.Remote_memory.t array;
  say : string -> unit;
  hooks : Faults.Campaign.hooks;
}

type t = { name : string; nodes : int; body : rig -> verdict }
type launch = say:(string -> unit) -> Sim.Engine.t * (unit -> verdict)

let no_hooks =
  {
    Faults.Campaign.clerk =
      (fun rmem ->
        let clerk = Names.Clerk.create rmem in
        Names.Clerk.serve_lookup_requests clerk;
        clerk);
    retry = (fun f -> f ());
    policy = (fun _ ~hint:_ _ -> None);
    timeout = Some (Sim.Time.ms 5);
  }

let say rig fmt = Printf.ksprintf rig.say fmt
let engine rig = Cluster.Testbed.engine rig.testbed
let now_us rig = Sim.Time.to_us (Sim.Engine.now (engine rig))

let since_us rig t0 =
  Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now (engine rig)) t0)

(* Name-service clerks boot first on every machine. *)
let clerks rig = Array.map rig.hooks.clerk rig.rmems

(* ------------------------------------------------------------------ *)
(* quickstart: node 1 exports a segment through the name service; node
   0 imports it by name, writes into it remotely (with a notification),
   reads it back, and runs a compare-and-swap twice.                   *)

let quickstart_body rig =
  let node0 = Cluster.Testbed.node rig.testbed 0 in
  let node1 = Cluster.Testbed.node rig.testbed 1 in
  let rmem0 = rig.rmems.(0) in
  let clerks = clerks rig in
  (* Node 1: export 4 KB of a process' memory as "shared.buffer",
     notifying whenever a request asks for it. *)
  let space1 = Cluster.Node.new_address_space node1 in
  let segment =
    Names.Api.export clerks.(1) ~space:space1 ~base:0 ~len:4096
      ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Conditional
      ~name:"shared.buffer" ()
  in
  say rig "node1 exported %S: segment id %d, generation %d\n"
    (Rmem.Segment.name segment) (Rmem.Segment.id segment)
    (Rmem.Generation.to_int (Rmem.Segment.generation segment));
  (* Node 1: block on the segment's notification descriptor, like a
     Unix process sleeping in read(2) on the fd. *)
  Cluster.Node.spawn node1 (fun () ->
      let record = Rmem.Notification.wait (Rmem.Segment.notification segment) in
      say rig "[%6.1f us] node1 notified: %s of %d bytes at offset %d\n"
        (now_us rig)
        (Rmem.Notification.kind_to_string record.Rmem.Notification.kind)
        record.Rmem.Notification.count record.Rmem.Notification.off);
  (* Node 0: import by name (LOOKUPNAME through the local clerk, remote
     read of node1's registry). *)
  let hint = Cluster.Node.addr node1 in
  let desc =
    rig.hooks.retry (fun () ->
        Names.Api.import ~hint clerks.(0) "shared.buffer")
  in
  say rig "node0 imported it: %s\n"
    (Format.asprintf "%a" Rmem.Descriptor.pp desc);
  let policy = rig.hooks.policy clerks.(0) ~hint "shared.buffer" in
  (* Remote WRITE with the notify bit: pure data transfer plus an
     explicitly requested control transfer. *)
  let message = Bytes.of_string "hello, remote memory" in
  Rmem.Remote_memory.write ?policy rmem0 desc ~off:0 ~notify:true message;
  say rig "[%6.1f us] node0 wrote %d bytes (non-blocking)\n" (now_us rig)
    (Bytes.length message);
  (* Remote READ it back into local memory. *)
  let space0 = Cluster.Node.new_address_space node0 in
  let buf = Rmem.Remote_memory.buffer ~space:space0 ~base:0 ~len:4096 in
  Rmem.Remote_memory.read_wait ?policy rmem0 desc ~soff:0
    ~count:(Bytes.length message) ~dst:buf ~doff:0 ();
  let got =
    Cluster.Address_space.read space0 ~addr:0 ~len:(Bytes.length message)
  in
  say rig "[%6.1f us] node0 read back: %S\n" (now_us rig)
    (Bytes.to_string got);
  (* Remote compare-and-swap: the model's synchronization primitive. *)
  let cas new_value =
    let witness =
      Rmem.Remote_memory.cas_wait ?policy rmem0 desc ~doff:1024 ~old_value:0
        ~new_value ()
    in
    say rig "[%6.1f us] node0 CAS(0 -> %d): won=%b (witness %d)\n"
      (now_us rig) new_value (witness = 0) witness
  in
  cas 42;
  cas 99;
  (* A lost reply makes a CAS witness ambiguous, so the word itself is
     the authority: the first CAS installed 42, the second left it. *)
  let word = Cluster.Address_space.read_word space1 ~addr:1024 in
  if Bytes.equal got message && word = 42 then Ok ()
  else
    Error
      (Printf.sprintf "echo=%b word=%d (want 42)" (Bytes.equal got message)
         word)

let quickstart = { name = "quickstart"; nodes = 2; body = quickstart_body }

(* ------------------------------------------------------------------ *)
(* name_service: node 2 exports a batch of named segments, the others
   look them up — by remote probing and by control transfer — then one
   name is revoked and re-exported, and the refresh pass detects the
   stale import and fails later operations locally.                    *)

let name_service_body rig =
  let clerks = clerks rig in
  let exporter = Cluster.Testbed.node rig.testbed 2 in
  let hint = Cluster.Node.addr exporter in
  let space = Cluster.Node.new_address_space exporter in
  let engine = engine rig in
  (* Export a batch of named segments on node 2. *)
  let names = List.init 8 (fun i -> Printf.sprintf "service/db/shard-%02d" i) in
  let segments =
    List.mapi
      (fun i name ->
        ( name,
          Names.Api.export clerks.(2) ~space ~base:(i * 8192) ~len:8192
            ~rights:Rmem.Rights.all ~name () ))
      names
  in
  say rig "node2 exported %d segments\n" (List.length segments);
  (* Node 0 imports them all by remote probing. *)
  List.iter
    (fun name ->
      let t0 = Sim.Engine.now engine in
      let (_ : Rmem.Descriptor.t) =
        rig.hooks.retry (fun () -> Names.Api.import ~hint clerks.(0) name)
      in
      say rig "node0 imported %-22s in %6.0f us\n" name (since_us rig t0))
    names;
  (* Node 1 uses the control-transfer path for one of them. *)
  let t0 = Sim.Engine.now engine in
  let (_ : Rmem.Descriptor.t) =
    rig.hooks.retry (fun () ->
        Names.Api.import_with_control_transfer ~hint clerks.(1)
          "service/db/shard-03")
  in
  say rig "node1 imported shard-03 via control transfer in %.0f us\n"
    (since_us rig t0);
  (* Cached re-import is cheap. *)
  let t0 = Sim.Engine.now engine in
  let desc =
    rig.hooks.retry (fun () ->
        Names.Api.import ~hint clerks.(0) "service/db/shard-00")
  in
  say rig "node0 cached re-import of shard-00: %.0f us\n" (since_us rig t0);
  (* Node 2's process fills shard-00's first bytes (a local store), so
     the fresh import below must read them back. *)
  let record = Bytes.of_string "shard-00 record:" in
  Cluster.Address_space.write space ~addr:0 record;
  (* Revoke and re-export shard-00 on node 2: the old descriptor is now
     a stale generation. *)
  let name, segment = List.hd segments in
  Names.Api.revoke clerks.(2) segment;
  let (_ : Rmem.Segment.t) =
    Names.Api.export clerks.(2) ~space ~base:0 ~len:8192
      ~rights:Rmem.Rights.all ~name ()
  in
  say rig "node2 revoked and re-exported %s\n" name;
  (* Before refresh, a remote op with the old descriptor fails at the
     destination; after refresh, it fails locally at the source — the
     paper's recovery path. *)
  let space0 =
    Cluster.Node.new_address_space (Cluster.Testbed.node rig.testbed 0)
  in
  let buf = Rmem.Remote_memory.buffer ~space:space0 ~base:0 ~len:64 in
  let policy = rig.hooks.policy clerks.(0) ~hint name in
  let read ?timeout desc =
    Rmem.Remote_memory.read_wait ?timeout ?policy rig.rmems.(0) desc ~soff:0
      ~count:(Bytes.length record) ~dst:buf ~doff:0 ()
  in
  let rejected ?timeout what =
    match read ?timeout desc with
    | () -> false
    | exception Rmem.Status.Remote_error status ->
        say rig "%s: %s\n" what (Rmem.Status.to_string status);
        true
  in
  let before =
    rejected ?timeout:rig.hooks.timeout "pre-refresh read rejected remotely"
  in
  Names.Clerk.refresh_once clerks.(0);
  let after = rejected "post-refresh read failed locally" in
  (* A fresh import picks up the new generation and works. *)
  read
    (rig.hooks.retry (fun () ->
         Names.Api.import ~force:true ~hint clerks.(0) name));
  say rig "fresh import works: read 16 bytes from re-exported %s\n" name;
  (* The re-export covers the same exporter memory. *)
  let echo =
    Bytes.equal
      (Cluster.Address_space.read space0 ~addr:0 ~len:(Bytes.length record))
      record
  in
  if before && after && echo then Ok ()
  else
    Error
      (Printf.sprintf "stale read rejected before=%b after=%b refresh, echo=%b"
         before after echo)

let name_service =
  { name = "name_service"; nodes = 3; body = name_service_body }

(* ------------------------------------------------------------------ *)
(* producer_consumer: a cross-machine ring built from the three
   primitives — remote CAS to claim slots, remote WRITE to deliver
   items, the notification bit as a doorbell.  Two producer machines
   feed one consumer; the ring lives in the consumer's memory: a ticket
   word (CAS target), a head word the consumer owns, and K slots each
   with a sequence flag the consumer clears after processing.  No RPC
   anywhere.                                                           *)

let ring_slots = 8
let slot_bytes = 64
let items_per_producer = 12

(* Ring layout in the consumer's segment; a slot is [seq word][len
   word][payload], seq = item sequence + 1. *)
let ticket_off = 0
let head_off = 4
let slot_off i = 64 + (i * slot_bytes)
let ring_len = 64 + (ring_slots * slot_bytes)

let producer_consumer_body rig =
  let clerks = clerks rig in
  let consumer_node = Cluster.Testbed.node rig.testbed 0 in
  let space = Cluster.Node.new_address_space consumer_node in
  let segment =
    Names.Api.export clerks.(0) ~space ~base:0 ~len:ring_len
      ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Conditional ~name:"ring" ()
  in
  let total = 2 * items_per_producer in
  let consumed = ref [] in
  (* The consumer: wait for doorbells, drain ready slots in order. *)
  let fd = Rmem.Segment.notification segment in
  let done_ = Sim.Ivar.create () in
  Cluster.Node.spawn consumer_node (fun () ->
      let next = ref 0 in
      while !next < total do
        let (_ : Rmem.Notification.record) = Rmem.Notification.wait fd in
        (* Drain every slot that has become ready, in order. *)
        let continue = ref true in
        while !continue && !next < total do
          let slot = slot_off (!next mod ring_slots) in
          let seq = Cluster.Address_space.read_word space ~addr:slot in
          if seq = !next + 1 then begin
            let len = Cluster.Address_space.read_word space ~addr:(slot + 4) in
            let item =
              Bytes.to_string
                (Cluster.Address_space.read space ~addr:(slot + 8) ~len)
            in
            consumed := item :: !consumed;
            (* Free the slot and publish the new head (local memory;
               producers poll it remotely). *)
            Cluster.Address_space.write_word space ~addr:slot 0;
            incr next;
            Cluster.Address_space.write_word space ~addr:head_off !next
          end
          else continue := false
        done
      done;
      Sim.Ivar.fill done_ ());
  (* Producers on nodes 1 and 2. *)
  let finished = ref 0 in
  let all_produced = Sim.Ivar.create () in
  for p = 1 to 2 do
    let node = Cluster.Testbed.node rig.testbed p in
    Cluster.Node.spawn node (fun () ->
        let rmem = rig.rmems.(p) in
        let desc =
          Names.Api.import ~hint:(Cluster.Node.addr consumer_node) clerks.(p)
            "ring"
        in
        let my_space = Cluster.Node.new_address_space node in
        let buf = Rmem.Remote_memory.buffer ~space:my_space ~base:0 ~len:64 in
        for i = 1 to items_per_producer do
          (* Claim the next sequence number: read the ticket word, then
             CAS(ticket -> ticket+1); retry on a lost race. *)
          let seq = ref (-1) in
          while !seq < 0 do
            Rmem.Remote_memory.read_wait rmem desc ~soff:ticket_off ~count:4
              ~dst:buf ~doff:0 ();
            let ticket = Cluster.Address_space.read_word my_space ~addr:0 in
            let witness =
              Rmem.Remote_memory.cas_wait rmem desc ~doff:ticket_off
                ~old_value:ticket ~new_value:(ticket + 1) ()
            in
            if witness = ticket then seq := ticket
          done;
          (* Wait for ring space: head must be within K of seq. *)
          let rec wait_for_space () =
            Rmem.Remote_memory.read_wait rmem desc ~soff:head_off ~count:4
              ~dst:buf ~doff:0 ();
            let head = Cluster.Address_space.read_word my_space ~addr:0 in
            if !seq - head >= ring_slots then begin
              Sim.Proc.wait (Sim.Time.us 100);
              wait_for_space ()
            end
          in
          wait_for_space ();
          (* Deliver the item: payload first, sequence flag last,
             doorbell on the flag write. *)
          let item = Printf.sprintf "item %d.%d" p i in
          let payload = Bytes.create (4 + String.length item) in
          Bytes.set_int32_le payload 0 (Int32.of_int (String.length item));
          Bytes.blit_string item 0 payload 4 (String.length item);
          let slot = slot_off (!seq mod ring_slots) in
          Rmem.Remote_memory.write rmem desc ~off:(slot + 4) payload;
          let flag = Bytes.create 4 in
          Bytes.set_int32_le flag 0 (Int32.of_int (!seq + 1));
          Rmem.Remote_memory.write rmem desc ~off:slot ~notify:true flag
        done;
        incr finished;
        if !finished = 2 then Sim.Ivar.fill all_produced ())
  done;
  Sim.Ivar.read all_produced;
  Sim.Ivar.read done_;
  let consumed = List.rev !consumed in
  say rig "consumed %d items in order:\n" (List.length consumed);
  List.iteri (fun i item -> say rig "  %2d: %s\n" i item) consumed;
  (* Every item arrived once, each producer's in the order it sent. *)
  let in_order p =
    List.filter
      (String.starts_with ~prefix:(Printf.sprintf "item %d." p))
      consumed
    = List.init items_per_producer (fun i ->
          Printf.sprintf "item %d.%d" p (i + 1))
  in
  if List.length consumed = total && in_order 1 && in_order 2 then Ok ()
  else
    Error
      (Printf.sprintf "consumed %d of %d, or out of order"
         (List.length consumed) total)

let producer_consumer =
  { name = "producer_consumer"; nodes = 3; body = producer_consumer_body }

(* ------------------------------------------------------------------ *)
(* file_service: one server, two client machines.  Client 1's clerk
   runs the same operation script under all three transfer schemes —
   classic RPC, the RPC-like Hybrid-1 (HY) and pure data transfer (DX)
   — comparing client-seen latency and server CPU.  Client 1 then
   updates a file with a pure-data write push and client 2 reads the
   new contents through the server's cache.                           *)

module F = Experiments.Fixture

let file_service_body ~say fx =
  let say fmt = Printf.ksprintf say fmt in
  let server_cpu = F.server_cpu fx in
  let fh = fx.F.bench_file in
  let dir = fx.F.bench_dir in
  let errors = ref 0 in
  let perform clerk op =
    match Dfs.Clerk.perform clerk op with
    | Dfs.Nfs_ops.R_error _ as result ->
        incr errors;
        result
    | result -> result
  in
  let script =
    [
      Dfs.Nfs_ops.Get_attr { fh };
      Dfs.Nfs_ops.Lookup { dir; name = "entry0001" };
      Dfs.Nfs_ops.Read { fh; off = 0; count = 4096 };
      Dfs.Nfs_ops.Read_dir { fh = dir; count = 1024 };
      Dfs.Nfs_ops.Write { fh; off = 8192; data = Bytes.make 4096 'v' };
      Dfs.Nfs_ops.Get_attr { fh };
    ]
  in
  let clerk = F.clerk fx 0 in
  List.iter
    (fun scheme ->
      Dfs.Clerk.set_scheme clerk scheme;
      F.reset_accounting fx;
      let (), elapsed =
        F.time fx (fun () ->
            List.iter
              (fun op -> ignore (perform clerk op : Dfs.Nfs_ops.result))
              script)
      in
      Sim.Proc.wait (Sim.Time.ms 5);
      say "%-4s script: %7.0f us total, server CPU %6.0f us\n"
        (Dfs.Clerk.scheme_to_string scheme)
        elapsed
        (Sim.Time.to_us (Cluster.Cpu.busy_time server_cpu));
      Cluster.Cpu.reset_accounting server_cpu)
    [ Dfs.Clerk.Rpc_baseline; Dfs.Clerk.Hybrid1; Dfs.Clerk.Dx ];
  (* Cross-client data flow: client 1 pushes, the server writes the
     block back, client 2 reads it through the server cache. *)
  let writer = F.clerk fx 0 in
  let reader = F.clerk fx 1 in
  Dfs.Clerk.set_scheme writer Dfs.Clerk.Dx;
  Dfs.Clerk.set_scheme reader Dfs.Clerk.Dx;
  let payload = Bytes.make 8192 '!' in
  ignore
    (perform writer (Dfs.Nfs_ops.Write { fh; off = 0; data = payload })
      : Dfs.Nfs_ops.result);
  Sim.Proc.wait (Sim.Time.ms 2);
  Dfs.Server.writeback fx.F.server ~fh ~block:0;
  let observed =
    match perform reader (Dfs.Nfs_ops.Read { fh; off = 0; count = 64 }) with
    | Dfs.Nfs_ops.R_data data ->
        say "client2 observes client1's push through the server cache: %S...\n"
          (Bytes.to_string (Bytes.sub data 0 8));
        Bytes.equal data (Bytes.sub payload 0 64)
    | _ -> false
  in
  let back = Dfs.File_store.read fx.F.store fh ~off:0 ~count:4 in
  say "store contents after write-back: %S\n" (Bytes.to_string back);
  let stored = Bytes.equal back (Bytes.sub payload 0 4) in
  if !errors = 0 && observed && stored then Ok ()
  else
    Error
      (Printf.sprintf "errors=%d observed=%b stored=%b" !errors observed stored)

let file_service ~say =
  let fx = F.create ~clients:2 () in
  (fx.F.engine, fun () -> F.run fx (fun () -> file_service_body ~say fx))

(* ------------------------------------------------------------------ *)

let launch t ~say =
  let testbed = Cluster.Testbed.create ~nodes:t.nodes () in
  let rmems =
    Array.init t.nodes (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  let rig = { testbed; rmems; say; hooks = no_hooks } in
  ( Cluster.Testbed.engine testbed,
    fun () -> Cluster.Testbed.run testbed (fun () -> t.body rig) )

let campaign t =
  Faults.Campaign.workload t.name ~nodes:t.nodes (fun testbed rmems ->
      t.body { testbed; rmems; say = ignore; hooks = Faults.Campaign.hooks })

let main ?ends launch =
  let engine, run = launch ~say:print_string in
  let verdict = run () in
  Option.iter
    (fun ends ->
      Printf.printf "%s %s\n" ends (Sim.Time.to_string (Sim.Engine.now engine)))
    ends;
  match verdict with
  | Ok () -> ()
  | Error detail ->
      prerr_endline ("verdict: " ^ detail);
      exit 1
