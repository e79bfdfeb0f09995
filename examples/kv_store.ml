(* A replicated key-value store with zero server control transfer.

   The paper's thesis, applied to a service it never built: the store's
   slots live in a segment exported by a home node; GET is one remote
   READ of the slot; PUT takes a per-key token with remote CAS, writes
   the slot with remote WRITEs (body first, header last), and releases
   the token.  The home node's CPU only ever emulates memory accesses —
   it runs no store code at all.

   Three clients hammer concurrent read-modify-write increments on a
   handful of hot keys; token mutual exclusion means no update is ever
   lost, which the final assertion checks.

     dune exec examples/kv_store.exe *)

let printf = Printf.printf

let clients = 3
let increments_per_client = 25
let hot_keys = [| "counter/red"; "counter/green"; "counter/blue" |]

let cache_config = { Dfs.Slot_cache.slots = 256; payload_bytes = 64 }

let key_hash name = Names.Record.fnv_hash name

type store_client = {
  rmem : Rmem.Remote_memory.t;
  data : Rmem.Descriptor.t;
  tokens : Dfs.Coherence.client;
  space : Cluster.Address_space.t;
}

let get c key =
  let k = key_hash key in
  let off = Dfs.Slot_cache.offset_of_key_cfg cache_config ~key1:k ~key2:0 in
  let fetch = Dfs.Slot_cache.slot_bytes cache_config in
  let buf = Rmem.Remote_memory.buffer ~space:c.space ~base:0 ~len:fetch in
  Rmem.Remote_memory.read_wait c.rmem c.data ~soff:off ~count:fetch ~dst:buf
    ~doff:0 ();
  let len =
    Dfs.Slot_cache.payload_length cache_config c.space ~addr:0 ~key1:k ~key2:0
      ~len:cache_config.payload_bytes
  in
  if len = Dfs.Slot_cache.miss then None
  else
    Some
      (Cluster.Address_space.read c.space ~addr:Dfs.Slot_cache.header_bytes ~len)

let put c key value =
  let k = key_hash key in
  let off = Dfs.Slot_cache.offset_of_key_cfg cache_config ~key1:k ~key2:0 in
  (* Body first, then the header with the valid flag. *)
  Rmem.Remote_memory.write c.rmem c.data
    ~off:(off + Dfs.Slot_cache.header_bytes)
    value;
  Rmem.Remote_memory.write c.rmem c.data ~off
    (Dfs.Slot_cache.header ~key1:k ~key2:0 ~len:(Bytes.length value))

(* Atomic read-modify-write under the key's token. *)
let increment c key =
  let token = key_hash key mod Dfs.Coherence.default_tokens in
  Dfs.Coherence.acquire c.tokens ~token;
  let current =
    match get c key with
    | Some payload -> Int32.to_int (Bytes.get_int32_le payload 0)
    | None -> 0
  in
  let fresh = Bytes.create 4 in
  Bytes.set_int32_le fresh 0 (Int32.of_int (current + 1));
  put c key fresh;
  (* The write is unacknowledged; fence before dropping the token so the
     next holder is guaranteed to observe it. *)
  Rmem.Remote_memory.fence c.rmem c.data;
  Dfs.Coherence.release c.tokens ~token

let () =
  let testbed = Cluster.Testbed.create ~nodes:(clients + 1) () in
  let rmems =
    Array.init (clients + 1) (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  let home = Cluster.Testbed.node testbed 0 in
  let totals = ref [] in
  Cluster.Testbed.run testbed (fun () ->
      let names = Array.map Names.Clerk.create rmems in
      Array.iter Names.Clerk.serve_lookup_requests names;
      (* The home node exports the data segment and the token table;
         after this it does nothing but exist. *)
      let space = Cluster.Node.new_address_space home in
      let (_ : Rmem.Segment.t) =
        Names.Api.export names.(0) ~space ~base:0
          ~len:(Dfs.Slot_cache.segment_bytes cache_config)
          ~rights:Rmem.Rights.all ~name:"kv:data" ()
      in
      let (_ : Dfs.Coherence.manager) =
        Dfs.Coherence.export_tokens ~names:names.(0) ()
      in
      Rmem.Remote_memory.set_server_role rmems.(0);
      Cluster.Cpu.reset_accounting (Cluster.Node.cpu home);
      let t_start = Sim.Engine.now (Cluster.Testbed.engine testbed) in
      (* Clients connect and hammer the hot keys concurrently. *)
      let finished = ref 0 in
      let all_done = Sim.Ivar.create () in
      for i = 1 to clients do
        let node = Cluster.Testbed.node testbed i in
        Cluster.Node.spawn node (fun () ->
            let c =
              {
                rmem = rmems.(i);
                data = Names.Api.import ~hint:(Cluster.Node.addr home) names.(i) "kv:data";
                tokens =
                  Dfs.Coherence.connect ~names:names.(i)
                    ~server:(Cluster.Node.addr home) ();
                space = Cluster.Node.new_address_space node;
              }
            in
            for n = 1 to increments_per_client do
              increment c hot_keys.((n + i) mod Array.length hot_keys)
            done;
            incr finished;
            if !finished = clients then Sim.Ivar.fill all_done ())
      done;
      Sim.Ivar.read all_done;
      let elapsed =
        Sim.Time.diff (Sim.Engine.now (Cluster.Testbed.engine testbed)) t_start
      in
      (* Verify from the home node's memory: no update was lost. *)
      let reader =
        {
          rmem = rmems.(1);
          data =
            Names.Api.import
              ~hint:(Cluster.Node.addr home)
              names.(1) "kv:data";
          tokens =
            Dfs.Coherence.connect ~names:names.(1)
              ~server:(Cluster.Node.addr home) ();
          space = Cluster.Node.new_address_space (Cluster.Testbed.node testbed 1);
        }
      in
      Array.iter
        (fun key ->
          match get reader key with
          | Some payload ->
              totals := (key, Int32.to_int (Bytes.get_int32_le payload 0)) :: !totals
          | None -> failwith "key missing")
        hot_keys;
      printf "all increments done in %.1f ms of cluster time\n"
        (Sim.Time.to_ms elapsed);
      printf "home-node CPU during the run: %.0f us (emulation only: %s)\n"
        (Sim.Time.to_us (Cluster.Cpu.busy_time (Cluster.Node.cpu home)))
        (String.concat ", "
           (Metrics.Account.categories
              (Cluster.Cpu.account (Cluster.Node.cpu home)))));
  let grand = List.fold_left (fun acc (_, n) -> acc + n) 0 !totals in
  List.iter (fun (key, n) -> printf "  %-14s = %d\n" key n) (List.rev !totals);
  printf "sum = %d (expected %d): %s\n" grand
    (clients * increments_per_client)
    (if grand = clients * increments_per_client then "no lost updates"
     else "LOST UPDATES");
  assert (grand = clients * increments_per_client)
