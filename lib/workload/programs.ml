(* Every declared access program (see the .mli).  These are
   declarations, not extractions-by-tracing: each names the segments,
   offsets, extents and retry disciplines the workload is *supposed* to
   use, the way a map-time manifest would. *)

open Program

let seg ?(rights = Rmem.Rights.all) ?(grants = [])
    ?(policy = Rmem.Segment.Conditional) ~exporter ~len name =
  { Rmem.Manifest.seg = name; exporter; len; rights; grants; policy }

(* ------------------------------------------------------------------ *)
(* Scenario programs (Analysis.Scenarios shapes).                      *)

(* kv_store: clients 1 and 2 own disjoint 64-byte slots of the server
   table and put/fence/get them. *)
let kv_store =
  let client node =
    let base = c (Stdlib.( * ) node 512) in
    {
      node;
      name = "client";
      body =
        [
          for_ "k" ~lo:0 ~hi:3
            [
              write ~seg:"kv table"
                ~off:(base + (v "k" * c 64))
                ~len:(c 64) ();
              fence "kv table";
              read ~seg:"kv table" ~off:(base + (v "k" * c 64)) ~len:(c 64);
            ];
        ];
    }
  in
  {
    name = "kv_store";
    manifest = [ seg ~exporter:0 ~len:4096 "kv table" ];
    nodes = [ client 1; client 2 ];
  }

(* producer_consumer: CAS-ticket slot claims, WRITE deliveries, notify
   doorbells; the consumer touches the slot each doorbell names. *)
let producer_consumer =
  let ring_len = 576 (* 64 + 8 slots x 64 *) in
  let slot = c 64 + (v "seq" * c 64) in
  let producer node =
    {
      node;
      name = "producer";
      body =
        [
          for_ "i" ~lo:1 ~hi:4
            [
              (* Ticket claim: each attempt re-reads the ticket word, so
                 the loop observes progress — not a blind spin. *)
              retry
                [
                  read_word ~seg:"ring" ~off:(c 0) ~var:"seq" ~lo:0 ~hi:7;
                  cas "ring" ~off:(c 0);
                ];
              write ~seg:"ring" ~off:(slot + c 4) ~len:(c 60) ();
              (* Length word last, doorbell on it. *)
              write ~notify:true ~seg:"ring" ~off:slot ~len:(c 4) ();
            ];
        ];
    }
  in
  let consumer =
    {
      node = 0;
      name = "consumer";
      body =
        [
          (* Each doorbell names one distinct slot; the loop variable
             stands in for the announced slot number. *)
          for_ "n" ~lo:0 ~hi:7
            [
              wait "ring";
              local_read ~seg:"ring" ~off:(c 64 + (v "n" * c 64)) ~len:(c 64);
            ];
        ];
    }
  in
  {
    name = "producer_consumer";
    manifest = [ seg ~exporter:0 ~len:ring_len "ring" ];
    nodes = [ consumer; producer 1; producer 2 ];
  }

(* file_service: the same block updated under a CAS lock, with the
   paper's fence before release. *)
let file_service_program ~fenced name =
  let client node =
    {
      node;
      name = "client";
      body =
        [
          for_ "round" ~lo:1 ~hi:2
            ([
               retry ~backoff:true [ cas ~role:Acquire "file blocks" ~off:(c 0) ];
               write ~seg:"file blocks" ~off:(c 1024) ~len:(c 256) ();
             ]
            @ (if fenced then [ fence "file blocks" ] else [])
            @ [ cas ~role:Release "file blocks" ~off:(c 0) ]);
        ];
    }
  in
  {
    name;
    manifest = [ seg ~exporter:0 ~len:4096 "file blocks" ];
    nodes = [ client 1; client 2 ];
  }

let file_service = file_service_program ~fenced:true "file_service"

let file_service_nofence =
  file_service_program ~fenced:false "file_service_nofence"

(* name_service: reads of the epoch segment and a status poll loop.
   The scenario's sins (a stale descriptor, polling notify:never) are
   dynamic-state misuses the lint catches at runtime; the declared
   access pattern itself is statically sound. *)
let name_service =
  {
    name = "name_service";
    manifest =
      [
        seg ~exporter:0 ~len:256 ~rights:Rmem.Rights.read_only
          ~policy:Rmem.Segment.Never "status";
        seg ~exporter:0 ~len:256 ~rights:Rmem.Rights.read_only "epoch";
      ];
    nodes =
      [
        {
          node = 1;
          name = "client";
          body =
            [
              read ~seg:"epoch" ~off:(c 0) ~len:(c 32);
              read ~seg:"epoch" ~off:(c 0) ~len:(c 32);
              for_ "n" ~lo:1 ~hi:12 [ read ~seg:"status" ~off:(c 0) ~len:(c 4) ];
            ];
        };
      ];
  }

(* racy: two unsynchronized writers to one range — a schedule property
   (the race detector's job), statically in-bounds and in-rights. *)
let racy =
  let writer node =
    {
      node;
      name = "writer";
      body =
        [
          write ~seg:"shared" ~off:(c 1024) ~len:(c 256) (); fence "shared";
        ];
    }
  in
  {
    name = "racy";
    manifest = [ seg ~exporter:0 ~len:4096 "shared" ];
    nodes = [ writer 1; writer 2 ];
  }

(* torn_record: single-agent local word traffic; tearing is a schedule
   property only exploration can surface — statically clean by design
   (the division-of-labor example). *)
let torn_record =
  {
    name = "torn_record";
    manifest = [ seg ~exporter:0 ~len:64 ~policy:Rmem.Segment.Never "record" ];
    nodes =
      [
        {
          node = 0;
          name = "reader";
          body =
            [
              for_ "n" ~lo:1 ~hi:2
                [
                  local_read ~seg:"record" ~off:(c 0) ~len:(c 4);
                  local_read ~seg:"record" ~off:(c 4) ~len:(c 4);
                ];
            ];
        };
        {
          node = 0;
          name = "writer";
          body =
            [
              local_write ~seg:"record" ~off:(c 0) ~len:(c 4);
              local_write ~seg:"record" ~off:(c 4) ~len:(c 4);
            ];
        };
      ];
  }

(* cas_missing_release: the buggy fast path — win the lock on the first
   attempt, write, and walk away without fence or release. *)
let cas_missing_release =
  {
    name = "cas_missing_release";
    manifest = [ seg ~exporter:0 ~len:4096 "lock table" ];
    nodes =
      [
        {
          node = 1;
          name = "client (fast path)";
          body =
            [
              retry ~backoff:true [ cas ~role:Acquire "lock table" ~off:(c 0) ];
              write ~seg:"lock table" ~off:(c 64) ~len:(c 32) ();
              (* THE BUG: no fence, no release CAS on the fast path. *)
            ];
        };
      ];
  }

(* cas_double_apply: the lost-reply wrapper reissues the same CAS and
   trusts the disjunction of reply statuses — one logical win, two
   possible applications. *)
let cas_double_apply =
  {
    name = "cas_double_apply";
    manifest = [ seg ~exporter:0 ~len:4096 "shared word" ];
    nodes =
      [
        {
          node = 1;
          name = "wrapper";
          body =
            [
              (* THE BUG: reissue on suspected loss, outcome decided by
                 s1 || s2 instead of re-reading the word. *)
              retry ~attempts:2 ~verified:false
                [ cas "shared word" ~off:(c 0) ];
            ];
        };
        {
          node = 2;
          name = "peer";
          body =
            [ cas "shared word" ~off:(c 0); cas "shared word" ~off:(c 0) ];
        };
      ];
  }

(* frame_overrun: a torn two-word (off, len) header forwarded to a
   remote frame reader.  Each field's declared range is individually
   sane — (0,8) and (4,4) both describe in-bounds frames — but nothing
   makes the pair atomic, so the combined worst case [0+hi(off),
   hi(off)+hi(len)) = [4,12) overruns the 8-byte data segment.  The
   interval analysis proves it from the declaration; dynamically only
   an adversarial schedule tears the header. *)
let frame_overrun =
  {
    name = "frame_overrun";
    manifest =
      [
        seg ~exporter:0 ~len:64 ~policy:Rmem.Segment.Never "frame.header";
        seg ~exporter:0 ~len:8 ~rights:Rmem.Rights.read_only "frame.data";
        seg ~exporter:1 ~len:8 "frame.req";
      ];
    nodes =
      [
        {
          node = 0;
          name = "writer";
          body =
            [
              local_write ~seg:"frame.header" ~off:(c 0) ~len:(c 4);
              local_write ~seg:"frame.header" ~off:(c 4) ~len:(c 4);
            ];
        };
        {
          node = 0;
          name = "forwarder";
          body =
            [
              local_read ~seg:"frame.header" ~off:(c 0) ~len:(c 4);
              local_read ~seg:"frame.header" ~off:(c 4) ~len:(c 4);
              write ~notify:true ~seg:"frame.req" ~off:(c 0) ~len:(c 8) ();
            ];
        };
        {
          node = 1;
          name = "reader";
          body =
            [
              wait "frame.req";
              read_word ~seg:"frame.req" ~off:(c 0) ~var:"off" ~lo:0 ~hi:4;
              read_word ~seg:"frame.req" ~off:(c 4) ~var:"len" ~lo:4 ~hi:8;
              read ~seg:"frame.data" ~off:(v "off") ~len:(v "len");
            ];
        };
      ];
  }

(* dds_register_no_writeback: the ABD register scenario with three
   single-cell replicas.  The writer's store phase claims each cell by
   CASing its tag word to the busy brand (each attempt re-reads the
   cell, so lost claims are observed) and releases it with one atomic
   8-byte deposit.  The reader only collects — THE BUG: no write-back
   store phase is declared, which is a protocol omission the interval
   and fence analyses cannot see (every declared access is in bounds,
   in rights and fenced); only schedule exploration surfaces the
   new/old inversion. *)
let dds_rep k = Printf.sprintf "reg.rep.%d" k

let dds_reg_manifest = List.init 3 (fun k -> seg ~exporter:k ~len:8 (dds_rep k))

let dds_reg_collect = List.init 3 (fun k -> read ~seg:(dds_rep k) ~off:(c 0) ~len:(c 8))

let dds_reg_store k =
  [
    retry ~attempts:8 ~backoff:true
      [ read ~seg:(dds_rep k) ~off:(c 0) ~len:(c 8); cas (dds_rep k) ~off:(c 0) ];
    write ~seg:(dds_rep k) ~off:(c 0) ~len:(c 8) ();
    fence (dds_rep k);
  ]

let dds_reg_store_all = List.concat_map dds_reg_store [ 0; 1; 2 ]

let dds_register_no_writeback =
  {
    name = "dds_register_no_writeback";
    manifest = dds_reg_manifest;
    nodes =
      [
        {
          node = 3;
          name = "writer";
          body = [ for_ "w" ~lo:1 ~hi:2 (dds_reg_collect @ dds_reg_store_all) ];
        };
        {
          node = 4;
          name = "reader (no write-back)";
          (* THE BUG: collect-and-adopt only; the adopted pair is never
             written back to a majority. *)
          body = [ for_ "r" ~lo:1 ~hi:2 dds_reg_collect ];
        };
      ];
  }

(* ------------------------------------------------------------------ *)
(* Campaign programs (Faults.Campaign shapes).  Policied writes verify
   by read-back, declared as write-then-fence; policied CAS wrappers
   re-read the authoritative word, declared verified. *)

let campaign_quickstart =
  {
    name = "quickstart";
    manifest = [ seg ~exporter:1 ~len:4096 "shared.buffer" ];
    nodes =
      [
        {
          node = 0;
          name = "client";
          body =
            [
              write ~seg:"shared.buffer" ~off:(c 0) ~len:(c 20) ();
              fence "shared.buffer";
              read ~seg:"shared.buffer" ~off:(c 0) ~len:(c 20);
              retry ~attempts:10 ~backoff:true
                [ cas "shared.buffer" ~off:(c 1024) ];
              retry ~attempts:10 ~backoff:true
                [ cas "shared.buffer" ~off:(c 1024) ];
              read ~seg:"shared.buffer" ~off:(c 1024) ~len:(c 4);
            ];
        };
      ];
  }

let campaign_name_service =
  let shard i = Printf.sprintf "service/db/shard-%02d" i in
  {
    name = "name_service";
    manifest = List.init 4 (fun i -> seg ~exporter:2 ~len:8192 (shard i));
    nodes =
      [
        {
          node = 0;
          name = "client";
          body =
            [
              write ~seg:(shard 0) ~off:(c 0) ~len:(c 28) ();
              fence (shard 0);
              read ~seg:(shard 0) ~off:(c 0) ~len:(c 28);
            ];
        };
      ];
  }

let campaign_producer_consumer =
  let slot = c 256 + (v "slot" * c 64) in
  let producer node =
    {
      node;
      name = "producer";
      body =
        [
          (* Even/odd slot split: 4 of the 8 slots each, disjoint. *)
          for_ "slot" ~lo:0 ~hi:7 [ write ~seg:"pc.ring" ~off:slot ~len:(c 64) () ];
          fence "pc.ring";
          retry ~attempts:10 ~backoff:true [ cas "pc.ring" ~off:(c 8) ];
        ];
    }
  in
  let consumer =
    {
      node = 1;
      name = "consumer";
      body = [ for_ "slot" ~lo:0 ~hi:7 [ local_read ~seg:"pc.ring" ~off:slot ~len:(c 4) ] ];
    }
  in
  {
    name = "producer_consumer";
    manifest = [ seg ~exporter:1 ~len:4096 "pc.ring" ];
    nodes = [ producer 0; producer 2; consumer ];
  }

let campaign_replica =
  let store i = Printf.sprintf "replica.store.%d" i in
  let store_len = 7168 (* 64 slots x 112 bytes *) in
  let member node =
    {
      node;
      name = "member";
      body =
        List.concat_map
          (fun peer ->
            if peer = node then []
            else
              [
                (* anti-entropy: read the peer's whole table, push
                   fresher slots back under the campaign policy. *)
                read ~seg:(store peer) ~off:(c 0) ~len:(c store_len);
                write ~seg:(store peer) ~off:(v "slot" * c 112) ~len:(c 112) ();
                fence (store peer);
              ])
          [ 0; 1; 2 ];
    }
  in
  {
    name = "replica";
    manifest =
      List.init 3 (fun i -> seg ~exporter:i ~len:store_len (store i));
    nodes =
      List.map
        (fun n ->
          let m = member n in
          {
            m with
            body = [ for_ "slot" ~lo:0 ~hi:63 m.body ];
          })
        [ 0; 1; 2 ];
  }

let campaign_crash_restart =
  {
    name = "crash_restart";
    manifest = [ seg ~exporter:1 ~len:4096 "store" ];
    nodes =
      [
        {
          node = 0;
          name = "client";
          body =
            [
              write ~seg:"store" ~off:(c 0) ~len:(c 24) ();
              fence "store";
              read ~seg:"store" ~off:(c 0) ~len:(c 24);
            ];
        };
      ];
  }

(* ------------------------------------------------------------------ *)
(* Pipelined-stream programs ([Experiments.Pipeline_bench] shapes): one
   op per loop step over the bench's 1 MiB stream segment.  protocheck
   holds them against the manifest and proves them batchable, so the
   pipelined mode the bench measures is a legal transformation of the
   program, not just a faster one. *)

let pipeline_stream name body =
  {
    name;
    manifest = [ seg ~exporter:0 ~len:(1 lsl 20) "pipe.stream" ];
    nodes = [ { node = 1; name = "issuer"; body } ];
  }

let pipeline_write_stream =
  pipeline_stream "pipeline_write_stream"
    [
      for_ "i" ~lo:0 ~hi:63
        [ write ~seg:"pipe.stream" ~off:(v "i" * c 4096) ~len:(c 4096) () ];
      fence "pipe.stream";
    ]

let pipeline_read_stream =
  pipeline_stream "pipeline_read_stream"
    [
      for_ "i" ~lo:0 ~hi:63
        [ read ~seg:"pipe.stream" ~off:(v "i" * c 4096) ~len:(c 4096) ];
    ]

let pipeline_doorbell =
  pipeline_stream "pipeline_doorbell"
    [
      for_ "i" ~lo:0 ~hi:63
        [
          write ~notify:true ~seg:"pipe.stream" ~off:(v "i" * c 4096)
            ~len:(c 4096) ();
        ];
      fence "pipe.stream";
    ]

(* ------------------------------------------------------------------ *)
(* Sharded name-service programs (Names.Shard_clerk / Names.Reconciler
   shapes).  Node 0 exports the shard map, nodes 2 and 3 export shard
   registry segments (256 slots x 64 bytes); node 1 is the reconciler,
   node 4 a lookup client.  The two publish variants differ by exactly
   one fence — the one that makes the migrated records durable at the
   destination before the map doorbell can route readers there. *)

let shard_reg_len = 16384 (* 256 slots x 64 bytes *)

(* A clerk lookup is pure data transfer: read the map epoch word and
   the owning entry, then walk a bounded probe chain in the registry
   segment the entry names.  The probe start comes out of the entry,
   so its declared range caps the chain inside the segment. *)
let sharded_lookup =
  {
    name = "sharded_lookup";
    manifest =
      [
        seg ~rights:Rmem.Rights.read_only ~exporter:0 ~len:2048 "shard.map";
        seg ~rights:Rmem.Rights.read_only ~exporter:2 ~len:shard_reg_len
          "shard.reg.0";
      ];
    nodes =
      [
        {
          node = 4;
          name = "clerk";
          body =
            [
              read_word ~seg:"shard.map" ~off:(c 0) ~var:"epoch" ~lo:0
                ~hi:255;
              read ~seg:"shard.map" ~off:(c 8) ~len:(c 40);
              read_word ~seg:"shard.map" ~off:(c 16) ~var:"slot" ~lo:0
                ~hi:253;
              for_ "probe" ~lo:0 ~hi:2
                [
                  read ~seg:"shard.reg.0"
                    ~off:((v "slot" + v "probe") * c 64)
                    ~len:(c 64);
                ];
            ];
        };
      ];
  }

(* The reconciler's split publication: copy the moved records into the
   destination registry, fence that segment so the copies are durable,
   then publish the map body and flip the epoch word last with the
   doorbell on it. *)
let shard_publish_body ~fenced =
  [
    for_ "r" ~lo:0 ~hi:11
      [ write ~seg:"shard.reg.1" ~off:(v "r" * c 64) ~len:(c 64) () ];
  ]
  @ (if fenced then [ fence "shard.reg.1" ] else [])
  @ [
      write ~seg:"shard.map" ~off:(c 8) ~len:(c 320) ();
      write ~notify:true ~seg:"shard.map" ~off:(c 0) ~len:(c 8) ();
    ]

let shard_publish ~name ~fenced =
  {
    name;
    manifest =
      [
        seg ~exporter:0 ~len:2048 "shard.map";
        seg ~exporter:3 ~len:shard_reg_len "shard.reg.1";
      ];
    nodes = [ { node = 1; name = "reconciler"; body = shard_publish_body ~fenced } ];
  }

let shard_map_publish = shard_publish ~name:"shard_map_publish" ~fenced:true

(* Seeded bug: the doorbell is raised while the record copies are still
   unfenced at the destination exporter — a freshly routed reader can
   probe slots the migration has not yet made durable. *)
let shard_map_publish_unfenced =
  shard_publish ~name:"shard_map_publish_unfenced" ~fenced:false

(* ------------------------------------------------------------------ *)
(* Distributed data-structure programs (Dds shapes): the DX (pure data
   transfer) structuring of each structure, which is the one with
   remote accesses to declare — the RPC structuring is precisely the
   control-transfer alternative, two messages and a home-CPU procedure,
   with nothing for the map-time checker to bound.  Each declared
   deposit is write-then-fence: the operation may not report success
   while its releasing WRITE is still in flight. *)

(* dds_hashtable: linear probing over 64 8-byte slots ([key][value]).
   The outer loop variable stands in for the key's hashed home slot;
   the probe chain is bounded by the table's load-factor guarantee.
   Insert claims the chain-ending key word by CAS (each attempt
   re-reads the slot, so lost claims are observed) and deposits the
   value word behind a fence. *)
let dds_hashtable =
  let slot_pair probe =
    read ~seg:"dds.table" ~off:((v "slot" + probe) * c 8) ~len:(c 8)
  in
  let probe_chain = [ for_ "probe" ~lo:0 ~hi:2 [ slot_pair (v "probe") ] ] in
  {
    name = "dds_hashtable";
    manifest = [ seg ~exporter:0 ~len:512 "dds.table" ];
    nodes =
      [
        {
          node = 1;
          name = "writer (dx)";
          body =
            [
              for_ "slot" ~lo:0 ~hi:60
                (probe_chain
                @ [
                    retry ~attempts:8 ~backoff:true
                      [
                        slot_pair (c 2);
                        cas "dds.table" ~off:((v "slot" + c 2) * c 8);
                      ];
                    write ~seg:"dds.table"
                      ~off:(((v "slot" + c 2) * c 8) + c 4)
                      ~len:(c 4) ();
                    fence "dds.table";
                  ]);
            ];
        };
        {
          node = 2;
          name = "reader (dx)";
          body = [ for_ "slot" ~lo:0 ~hi:60 probe_chain ];
        };
      ];
  }

(* dds_queue: [head][tail] words then 64 8-byte ticket slots.  The
   ticket comes out of the counter word itself, so its declared range
   caps the slot access; the brand-claim CAS pairs with a release CAS
   and the deposit is one atomic 8-byte frame (no torn slot). *)
let dds_queue =
  let slot var = c 8 + (v var * c 8) in
  let claim ~off ~var =
    retry ~attempts:8 ~backoff:true
      [
        read_word ~seg:"dds.ring" ~off ~var ~lo:0 ~hi:63;
        cas "dds.ring" ~off;
      ]
  in
  {
    name = "dds_queue";
    manifest = [ seg ~exporter:0 ~len:520 "dds.ring" ];
    nodes =
      [
        {
          node = 1;
          name = "producer (dx)";
          body =
            [
              for_ "i" ~lo:1 ~hi:4
                [
                  claim ~off:(c 4) ~var:"ticket";
                  cas "dds.ring" ~off:(c 4);
                  (* release the brand to ticket+1 *)
                  write ~seg:"dds.ring" ~off:(slot "ticket") ~len:(c 8) ();
                  fence "dds.ring";
                ];
            ];
        };
        {
          node = 2;
          name = "consumer (dx)";
          body =
            [
              for_ "i" ~lo:1 ~hi:4
                [
                  claim ~off:(c 0) ~var:"head";
                  cas "dds.ring" ~off:(c 0);
                  (* head < tail proves an enqueuer owns the ticket:
                     poll the slot until its deposit lands. *)
                  retry ~attempts:64 ~backoff:true
                    [ read ~seg:"dds.ring" ~off:(slot "head") ~len:(c 8) ];
                ];
            ];
        };
      ];
  }

(* dds_register: the correct ABD register — same replica cells and
   store phase as the seeded scenario, but the reader writes the
   adopted pair back until a majority holds it. *)
let dds_register =
  {
    name = "dds_register";
    manifest = dds_reg_manifest;
    nodes =
      [
        {
          node = 3;
          name = "writer";
          body = [ for_ "w" ~lo:1 ~hi:2 (dds_reg_collect @ dds_reg_store_all) ];
        };
        {
          node = 4;
          name = "reader";
          body = [ for_ "r" ~lo:1 ~hi:2 (dds_reg_collect @ dds_reg_store_all) ];
        };
      ];
  }
