(* A cross-machine producer/consumer ring built from the three
   primitives: remote CAS to claim slots, remote WRITE to deliver
   items, and the notification bit as a doorbell.

   Two producer machines feed one consumer.  The ring lives in the
   consumer's memory: a ticket word (CAS target), a head word the
   consumer owns, and K slots each with a sequence flag the consumer
   clears after processing.  No RPC anywhere.

     dune exec examples/producer_consumer.exe *)

let printf = Printf.printf

let ring_slots = 8
let slot_bytes = 64
let items_per_producer = 12

(* Ring layout in the consumer's segment. *)
let ticket_off = 0
let head_off = 4
let slot_off i = 64 + (i * slot_bytes)
(* slot: [seq word][len word][payload] ; seq = item sequence + 1 *)

let ring_len = 64 + (ring_slots * slot_bytes)

let () =
  let testbed = Cluster.Testbed.create ~nodes:3 () in
  let engine = Cluster.Testbed.engine testbed in
  let rmems =
    Array.init 3 (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  let consumed = ref [] in
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
                let len =
                  Cluster.Address_space.read_word space ~addr:(slot + 4)
                in
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
              (* Claim the next sequence number: read the ticket word,
                 then CAS(ticket -> ticket+1); retry on a lost race. *)
              let seq = ref (-1) in
              while !seq < 0 do
                Rmem.Remote_memory.read_wait rmem desc ~soff:ticket_off
                  ~count:4 ~dst:buf ~doff:0 ();
                let ticket = Cluster.Address_space.read_word my_space ~addr:0 in
                let witness =
                  Rmem.Remote_memory.cas_wait rmem desc ~doff:ticket_off
                    ~old_value:ticket
                    ~new_value:(ticket + 1) ()
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
      Sim.Ivar.read done_);
  printf "consumed %d items in order:\n" (List.length !consumed);
  List.iteri
    (fun i item -> printf "  %2d: %s\n" i item)
    (List.rev !consumed);
  printf "finished at %s\n" (Sim.Time.to_string (Sim.Engine.now engine))
