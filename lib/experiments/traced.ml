(* Traced replays of the example workloads.

   Each replay runs the same operation sequence as its example (minus
   the narration), with a tracer and a metrics registry attached for the
   duration, and hands back both for export: [bin/tracer] turns them
   into Chrome trace JSON and a text report, the tests assert span-tree
   shapes.  The fixture warm-up of the file-service replay happens
   before the tracer attaches, so its spans cover steady state only. *)

type run = { trace : Obs.Trace.t; registry : Obs.Registry.t }

let traced engine body =
  let registry = Obs.Registry.create () in
  let trace = Obs.Trace.create ~registry engine in
  Obs.Trace.attach trace;
  Fun.protect ~finally:Obs.Trace.detach body;
  Obs.Trace.finalize trace;
  { trace; registry }

(* Two nodes: export by name, import, WRITE with notify, READ back,
   CAS twice (win then lose). *)
let quickstart () =
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let node0 = Cluster.Testbed.node testbed 0 in
  let node1 = Cluster.Testbed.node testbed 1 in
  let rmem0 = Rmem.Remote_memory.attach node0 in
  let rmem1 = Rmem.Remote_memory.attach node1 in
  traced (Cluster.Testbed.engine testbed) (fun () ->
      Cluster.Testbed.run testbed (fun () ->
          let names0 = Names.Clerk.create rmem0 in
          let names1 = Names.Clerk.create rmem1 in
          Names.Clerk.serve_lookup_requests names0;
          Names.Clerk.serve_lookup_requests names1;
          let space1 = Cluster.Node.new_address_space node1 in
          let segment =
            Names.Api.export names1 ~space:space1 ~base:0 ~len:4096
              ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Conditional
              ~name:"shared.buffer" ()
          in
          Cluster.Node.spawn node1 (fun () ->
              let (_ : Rmem.Notification.record) =
                Rmem.Notification.wait (Rmem.Segment.notification segment)
              in
              ());
          let desc =
            Names.Api.import ~hint:(Cluster.Node.addr node1) names0
              "shared.buffer"
          in
          let message = Bytes.of_string "hello, remote memory" in
          Rmem.Remote_memory.write rmem0 desc ~off:0 ~notify:true message;
          let space0 = Cluster.Node.new_address_space node0 in
          let buf =
            Rmem.Remote_memory.buffer ~space:space0 ~base:0 ~len:4096
          in
          Rmem.Remote_memory.read_wait rmem0 desc ~soff:0
            ~count:(Bytes.length message) ~dst:buf ~doff:0 ();
          let (_ : int) =
            Rmem.Remote_memory.cas_wait rmem0 desc ~doff:1024 ~old_value:0
              ~new_value:42 ()
          in
          let (_ : int) =
            Rmem.Remote_memory.cas_wait rmem0 desc ~doff:1024 ~old_value:0
              ~new_value:99 ()
          in
          ()))

(* Three nodes: batch export on node 2, probing and control-transfer
   imports, revoke/re-export, the stale-generation recovery path. *)
let name_service () =
  let testbed = Cluster.Testbed.create ~nodes:3 () in
  let rmems =
    Array.init 3 (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  traced (Cluster.Testbed.engine testbed) (fun () ->
      Cluster.Testbed.run testbed (fun () ->
          let clerks = Array.map Names.Clerk.create rmems in
          Array.iter Names.Clerk.serve_lookup_requests clerks;
          let exporter = Cluster.Testbed.node testbed 2 in
          let hint = Cluster.Node.addr exporter in
          let space = Cluster.Node.new_address_space exporter in
          let names =
            List.init 4 (fun i -> Printf.sprintf "service/db/shard-%02d" i)
          in
          let segments =
            List.mapi
              (fun i name ->
                ( name,
                  Names.Api.export clerks.(2) ~space ~base:(i * 8192)
                    ~len:8192 ~rights:Rmem.Rights.all ~name () ))
              names
          in
          List.iter
            (fun name ->
              let (_ : Rmem.Descriptor.t) =
                Names.Api.import ~hint clerks.(0) name
              in
              ())
            names;
          let (_ : Rmem.Descriptor.t) =
            Names.Api.import_with_control_transfer ~hint clerks.(1)
              "service/db/shard-03"
          in
          let desc = Names.Api.import ~hint clerks.(0) "service/db/shard-00" in
          let name, segment = List.hd segments in
          Names.Api.revoke clerks.(2) segment;
          let (_ : Rmem.Segment.t) =
            Names.Api.export clerks.(2) ~space ~base:0 ~len:8192
              ~rights:Rmem.Rights.all ~name ()
          in
          let space0 =
            Cluster.Node.new_address_space (Cluster.Testbed.node testbed 0)
          in
          let buf = Rmem.Remote_memory.buffer ~space:space0 ~base:0 ~len:64 in
          (try
             Rmem.Remote_memory.read_wait ~timeout:(Sim.Time.ms 5) rmems.(0)
               desc ~soff:0 ~count:16 ~dst:buf ~doff:0 ()
           with Rmem.Status.Remote_error _ -> ());
          Names.Clerk.refresh_once clerks.(0);
          (try
             Rmem.Remote_memory.read_wait rmems.(0) desc ~soff:0 ~count:16
               ~dst:buf ~doff:0 ()
           with Rmem.Status.Remote_error _ -> ());
          let desc = Names.Api.import ~force:true ~hint clerks.(0) name in
          Rmem.Remote_memory.read_wait rmems.(0) desc ~soff:0 ~count:16
            ~dst:buf ~doff:0 ()))

(* The CAS-claimed, WRITE-delivered, notification-doorbelled ring from
   the producer/consumer example, shrunk to 6 items per producer. *)
let producer_consumer () =
  let ring_slots = 8 in
  let slot_bytes = 64 in
  let items_per_producer = 6 in
  let ticket_off = 0 in
  let head_off = 4 in
  let slot_off i = 64 + (i * slot_bytes) in
  let ring_len = 64 + (ring_slots * slot_bytes) in
  let testbed = Cluster.Testbed.create ~nodes:3 () in
  let rmems =
    Array.init 3 (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  traced (Cluster.Testbed.engine testbed) (fun () ->
      Cluster.Testbed.run testbed (fun () ->
          let clerks = Array.map Names.Clerk.create rmems in
          Array.iter Names.Clerk.serve_lookup_requests clerks;
          let consumer_node = Cluster.Testbed.node testbed 0 in
          let space = Cluster.Node.new_address_space consumer_node in
          let segment =
            Names.Api.export clerks.(0) ~space ~base:0 ~len:ring_len
              ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Conditional
              ~name:"ring" ()
          in
          let total = 2 * items_per_producer in
          let fd = Rmem.Segment.notification segment in
          let done_ = Sim.Ivar.create () in
          Cluster.Node.spawn consumer_node (fun () ->
              let next = ref 0 in
              while !next < total do
                let (_ : Rmem.Notification.record) =
                  Rmem.Notification.wait fd
                in
                let continue = ref true in
                while !continue && !next < total do
                  let slot = slot_off (!next mod ring_slots) in
                  let seq = Cluster.Address_space.read_word space ~addr:slot in
                  if seq = !next + 1 then begin
                    Cluster.Address_space.write_word space ~addr:slot 0;
                    incr next;
                    Cluster.Address_space.write_word space ~addr:head_off !next
                  end
                  else continue := false
                done
              done;
              Sim.Ivar.fill done_ ());
          let finished = ref 0 in
          let all_produced = Sim.Ivar.create () in
          for p = 1 to 2 do
            let node = Cluster.Testbed.node testbed p in
            Cluster.Node.spawn node (fun () ->
                let rmem = rmems.(p) in
                let desc =
                  Names.Api.import
                    ~hint:(Cluster.Node.addr consumer_node)
                    clerks.(p) "ring"
                in
                let my_space = Cluster.Node.new_address_space node in
                let buf =
                  Rmem.Remote_memory.buffer ~space:my_space ~base:0 ~len:64
                in
                for i = 1 to items_per_producer do
                  let seq = ref (-1) in
                  while !seq < 0 do
                    Rmem.Remote_memory.read_wait rmem desc ~soff:ticket_off
                      ~count:4 ~dst:buf ~doff:0 ();
                    let ticket =
                      Cluster.Address_space.read_word my_space ~addr:0
                    in
                    let witness =
                      Rmem.Remote_memory.cas_wait rmem desc ~doff:ticket_off
                        ~old_value:ticket
                        ~new_value:(ticket + 1) ()
                    in
                    if witness = ticket then seq := ticket
                  done;
                  let rec wait_for_space () =
                    Rmem.Remote_memory.read_wait rmem desc ~soff:head_off
                      ~count:4 ~dst:buf ~doff:0 ();
                    let head =
                      Cluster.Address_space.read_word my_space ~addr:0
                    in
                    if !seq - head >= ring_slots then begin
                      Sim.Proc.wait (Sim.Time.us 100);
                      wait_for_space ()
                    end
                  in
                  wait_for_space ();
                  let item = Printf.sprintf "item %d.%d" p i in
                  let payload = Bytes.create (4 + String.length item) in
                  Bytes.set_int32_le payload 0
                    (Int32.of_int (String.length item));
                  Bytes.blit_string item 0 payload 4 (String.length item);
                  let slot = slot_off (!seq mod ring_slots) in
                  Rmem.Remote_memory.write rmem desc ~off:(slot + 4) payload;
                  let flag = Bytes.create 4 in
                  Bytes.set_int32_le flag 0 (Int32.of_int (!seq + 1));
                  Rmem.Remote_memory.write rmem desc ~off:slot ~notify:true
                    flag
                done;
                incr finished;
                if !finished = 2 then Sim.Ivar.fill all_produced ())
          done;
          Sim.Ivar.read all_produced;
          Sim.Ivar.read done_))

(* The DFS clerk against the warmed file server: the same operations
   through the DX (pure data transfer) and Hybrid-1 (request write +
   notification) schemes, so the two schemes' span trees sit side by
   side in one trace. *)
let file_service () =
  let fx = Fixture.create ~clients:1 () in
  traced fx.Fixture.engine (fun () ->
      Fixture.run fx (fun () ->
          let clerk = Fixture.clerk fx 0 in
          let ops =
            [
              Dfs.Nfs_ops.Get_attr { fh = fx.Fixture.bench_file };
              Dfs.Nfs_ops.Read
                { fh = fx.Fixture.bench_file; off = 0; count = 1024 };
            ]
          in
          Dfs.Clerk.set_scheme clerk Dfs.Clerk.Dx;
          List.iter
            (fun op -> ignore (Dfs.Clerk.remote_fetch clerk op : Dfs.Nfs_ops.result))
            ops;
          Fixture.recache_bench fx;
          Dfs.Clerk.set_scheme clerk Dfs.Clerk.Hybrid1;
          List.iter
            (fun op -> ignore (Dfs.Clerk.remote_fetch clerk op : Dfs.Nfs_ops.result))
            ops;
          Dfs.Clerk.set_scheme clerk Dfs.Clerk.Dx))
