(* Tests for the paper's §3 extension mechanisms: failure detection
   (§3.7), heterogeneity (§3.6), link encryption (§3.5) and eager
   server-to-clerk push (§3.2). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Heartbeat (§3.7) ---------------- *)

let heartbeat_detects_crash () =
  let d = Rig.duo () in
  let probes = Rig.reads d.Rig.node0 in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment ~len:4096 d in
      let stop_publish =
        Rmem.Heartbeat.publish d.Rig.rmem1 segment ~off:0
          ~period:(Sim.Time.ms 2)
      in
      let failed_at = ref None in
      let watcher =
        Rmem.Heartbeat.watch d.Rig.rmem0 desc ~soff:0 ~period:(Sim.Time.ms 4)
          ~timeout:(Sim.Time.ms 2) ~strikes_allowed:2
          ~on_failure:(fun () ->
            failed_at := Some (Sim.Engine.now d.Rig.engine))
          ()
      in
      (* Healthy for a while. *)
      Sim.Proc.wait (Sim.Time.ms 40);
      check_bool "alive while publisher runs" true
        (Rmem.Heartbeat.state watcher = Rmem.Heartbeat.Alive);
      check_bool "probing happened" true (!probes > 5);
      (* Crash the publisher's node: reads start timing out. *)
      Cluster.Node.set_down d.Rig.node1 true;
      Sim.Proc.wait (Sim.Time.ms 60);
      check_bool "failure detected" true
        (Rmem.Heartbeat.state watcher = Rmem.Heartbeat.Failed);
      check_bool "failure callback ran" true (!failed_at <> None);
      (* Stop the publisher daemon so the simulation can drain. *)
      stop_publish ())

let heartbeat_detects_wedged_publisher () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment ~len:4096 d in
      (* No publisher at all: the counter never moves, so even though
         reads succeed the watcher must flag the service. *)
      let failed = ref false in
      let watcher =
        Rmem.Heartbeat.watch d.Rig.rmem0 desc ~soff:0 ~period:(Sim.Time.ms 2)
          ~timeout:(Sim.Time.ms 2) ~strikes_allowed:2
          ~on_failure:(fun () -> failed := true)
          ()
      in
      Sim.Proc.wait (Sim.Time.ms 30);
      check_bool "stuck counter detected" true !failed;
      check_bool "state failed" true
        (Rmem.Heartbeat.state watcher = Rmem.Heartbeat.Failed))

(* ---------------- Heterogeneity (§3.6) ---------------- *)

let word_array values =
  let b = Bytes.create (4 * Array.length values) in
  Array.iteri (fun i v -> Bytes.set_int32_le b (i * 4) v) values;
  b

let swab_write_converts () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      (* A "big-endian" writer sends words in its own order and sets the
         swab bit; the receiver stores them converted. *)
      let values = [| 0x11223344l; 0xAABBCCDDl; 7l |] in
      let big_endian_image = Rmem.Wire.swap_words (word_array values) in
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 ~swab:true
        big_endian_image;
      Sim.Proc.wait (Sim.Time.ms 1);
      Array.iteri
        (fun i expected ->
          Alcotest.(check int32)
            (Printf.sprintf "word %d converted" i)
            expected
            (Int32.of_int
               (Cluster.Address_space.read_word d.Rig.space1 ~addr:(i * 4))))
        values)

let swab_read_converts () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let values = [| 0xDEADBEEFl; 0x01020304l |] in
      Cluster.Address_space.write d.Rig.space1 ~addr:0 (word_array values);
      let buf = Rig.buffer0 d in
      Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:8 ~dst:buf
        ~doff:0 ~swab:true ();
      (* The reader receives the words in its (opposite) byte order. *)
      let got = Cluster.Address_space.read d.Rig.space0 ~addr:0 ~len:8 in
      check_bool "read arrived byte-swapped" true
        (Bytes.equal got (Rmem.Wire.swap_words (word_array values))))

let swab_is_involutive =
  QCheck.Test.make ~name:"swap_words is an involution on word multiples"
    ~count:200
    QCheck.(string_of_size Gen.(map (fun n -> n * 4) (0 -- 200)))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Rmem.Wire.swap_words (Rmem.Wire.swap_words b)))

(* ---------------- Link encryption (§3.5) ---------------- *)

let crypto_transparent_with_shared_key () =
  let d = Rig.duo () in
  Rmem.Remote_memory.set_crypto d.Rig.rmem0 (Some Rmem.Crypto.hardware_an1);
  Rmem.Remote_memory.set_crypto d.Rig.rmem1 (Some Rmem.Crypto.hardware_an1);
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let secret = Bytes.of_string "attack at dawn, via remote memory" in
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:64 secret;
      Sim.Proc.wait (Sim.Time.ms 1);
      check_bool "plaintext at the trusted endpoint" true
        (Bytes.equal secret
           (Cluster.Address_space.read d.Rig.space1 ~addr:64
              ~len:(Bytes.length secret)));
      let buf = Rig.buffer0 d in
      Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:64
        ~count:(Bytes.length secret) ~dst:buf ~doff:0 ();
      check_bool "round trip through two transforms" true
        (Bytes.equal secret
           (Cluster.Address_space.read d.Rig.space0 ~addr:0
              ~len:(Bytes.length secret))))

let crypto_garbles_without_key () =
  let d = Rig.duo () in
  (* Only the sender encrypts: the receiver (no key installed) deposits
     ciphertext — the property that makes eavesdropping useless. *)
  Rmem.Remote_memory.set_crypto d.Rig.rmem0 (Some Rmem.Crypto.hardware_an1);
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let secret = Bytes.of_string "0123456789abcdef" in
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 secret;
      Sim.Proc.wait (Sim.Time.ms 1);
      let stored =
        Cluster.Address_space.read d.Rig.space1 ~addr:0
          ~len:(Bytes.length secret)
      in
      check_bool "ciphertext differs from plaintext" false
        (Bytes.equal stored secret);
      check_bool "and decrypts back with the key" true
        (Bytes.equal secret
           (Rmem.Crypto.transform Rmem.Crypto.hardware_an1 stored)))

let crypto_costs_are_charged () =
  let latency crypto =
    let d = Rig.duo () in
    Rmem.Remote_memory.set_crypto d.Rig.rmem0 crypto;
    Rmem.Remote_memory.set_crypto d.Rig.rmem1 crypto;
    let out = ref 0. in
    Rig.run d (fun () ->
        let _, desc = Rig.shared_segment d in
        let buf = Rig.buffer0 d in
        let (), us =
          Rig.elapsed_us d (fun () ->
              Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:40
                ~dst:buf ~doff:0 ())
        in
        out := us);
    !out
  in
  let plain = latency None in
  let hardware = latency (Some Rmem.Crypto.hardware_an1) in
  let software = latency (Some Rmem.Crypto.software_des) in
  check_bool "hardware adds a little" true
    (hardware > plain && hardware < plain +. 10.);
  check_bool "software adds a lot" true (software > plain +. 20.)

let crypto_and_swab_compose () =
  (* Encryption outermost, byte-order conversion inside: a secure
     heterogeneous pair still exchanges correct word values. *)
  let d = Rig.duo () in
  Rmem.Remote_memory.set_crypto d.Rig.rmem0 (Some Rmem.Crypto.hardware_an1);
  Rmem.Remote_memory.set_crypto d.Rig.rmem1 (Some Rmem.Crypto.hardware_an1);
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let values = [| 0xCAFEBABEl; 0x10203040l |] in
      let foreign_order = Rmem.Wire.swap_words (word_array values) in
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 ~swab:true
        foreign_order;
      Sim.Proc.wait (Sim.Time.ms 1);
      Array.iteri
        (fun i expected ->
          Alcotest.(check int32)
            (Printf.sprintf "word %d decrypted and converted" i)
            expected
            (Int32.of_int
               (Cluster.Address_space.read_word d.Rig.space1 ~addr:(i * 4))))
        values)

(* What a data path that cuts every frame's data out into its own buffer
   delivers: each chunk of [chunk] bytes (the frame size) goes through
   the transforming [stages] on its own. *)
let chunked ~chunk stages data =
  let len = Bytes.length data in
  let out = Bytes.create len in
  let rec go pos =
    if pos < len then begin
      let n = min chunk (len - pos) in
      let x = List.fold_left (fun x f -> f x) (Bytes.sub data pos n) stages in
      Bytes.blit x 0 out pos n;
      go (pos + n)
    end
  in
  go 0;
  out

(* Every key arrangement (none, shared, sender only, mismatched) with and
   without the swab bit, through WRITE, a two-extent burst and READ. *)
let crypto_swab_match_copying_path =
  QCheck.Test.make ~name:"crypto and swab deliver the copying path's bytes"
    ~count:60
    QCheck.(quad (int_range 2 2000) (int_bound 4000) (int_bound 3) bool)
    (fun (size, off, keys, swab) ->
      let an1 = Rmem.Crypto.hardware_an1 in
      let other = Rmem.Crypto.make ~key:77 ~per_word_cost:Sim.Time.zero in
      let c0, c1 =
        match keys with
        | 0 -> (None, None)
        | 1 -> (Some an1, Some an1)
        | 2 -> (Some an1, None)
        | _ -> (Some an1, Some other)
      in
      let d = Rig.duo () in
      Rmem.Remote_memory.set_crypto d.Rig.rmem0 c0;
      Rmem.Remote_memory.set_crypto d.Rig.rmem1 c1;
      let crypt c x = match c with None -> x | Some c -> Rmem.Crypto.transform c x in
      let swapped x = if swab then Rmem.Wire.swap_words x else x in
      let chunk =
        (Cluster.Node.costs d.Rig.node0).Cluster.Costs.burst_cells
        * Rmem.Wire.data_bytes_per_cell
      in
      let data = Bytes.init size (fun i -> Char.chr (((i * 7) + off) land 0xFF)) in
      let half = size / 2 in
      let extents =
        [ (8192, Bytes.sub data 0 half); (8195 + half, Bytes.sub data half (size - half)) ]
      in
      Rig.run d (fun () ->
          let _, desc = Rig.shared_segment ~len:16384 d in
          Rmem.Remote_memory.write d.Rig.rmem0 desc ~off ~swab data;
          Rmem.Remote_memory.write_burst d.Rig.rmem0 desc ~swab
            (List.map
               (fun (off, data) ->
                 { Rmem.Wire.off; len = Bytes.length data; writes = [ (off, data) ] })
               extents);
          Rmem.Remote_memory.fence d.Rig.rmem0 desc;
          let stored = Cluster.Address_space.read d.Rig.space1 ~addr:off ~len:size in
          Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:off ~count:size
            ~dst:(Rig.buffer0 d) ~doff:5 ~swab ();
          let fetched = Cluster.Address_space.read d.Rig.space0 ~addr:5 ~len:size in
          Bytes.equal stored (chunked ~chunk [ crypt c0; crypt c1; swapped ] data)
          && List.for_all
               (fun (addr, extent) ->
                 Bytes.equal
                   (Cluster.Address_space.read d.Rig.space1 ~addr
                      ~len:(Bytes.length extent))
                   (swapped (crypt c1 (crypt c0 extent))))
               extents
          && Bytes.equal fetched
               (chunked ~chunk [ crypt c1; crypt c0; swapped ] stored)))

(* ---------------- Eager push (§3.2) ---------------- *)

let eager_push_updates_clerk_cache () =
  let testbed = Cluster.Testbed.create ~nodes:3 () in
  let rmems =
    Array.init 3 (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  Cluster.Testbed.run testbed (fun () ->
      let names = Array.map Names.Clerk.create rmems in
      Array.iter Names.Clerk.serve_lookup_requests names;
      let store = Dfs.File_store.create () in
      let root = Dfs.File_store.root store in
      let fh = Dfs.File_store.create_file store ~dir:root ~name:"shared" () in
      Dfs.File_store.write store fh ~off:0 (Bytes.make 8192 'o');
      let server = Dfs.Server.create ~rmem:rmems.(0) ~clerk:names.(0) ~store () in
      Dfs.Server.warm_all_caches server;
      let addr0 = Cluster.Node.addr (Cluster.Testbed.node testbed 0) in
      let writer = Dfs.Clerk.create ~names:names.(1) ~server:addr0 () in
      let reader =
        Dfs.Clerk.create ~export_local_cache:true ~names:names.(2)
          ~server:addr0 ()
      in
      Dfs.Server.enable_eager_push server
        ~client:(Cluster.Node.addr (Cluster.Testbed.node testbed 2));
      (* Prime the reader's local cache with the old contents. *)
      (match
         Dfs.Clerk.perform reader (Dfs.Nfs_ops.Read { fh; off = 0; count = 8192 })
       with
      | Dfs.Nfs_ops.R_data _ -> ()
      | _ -> Alcotest.fail "prime read failed");
      (* Writer pushes a new block; server write-back triggers the push. *)
      let fresh = Bytes.make 8192 'n' in
      (match
         Dfs.Clerk.perform writer (Dfs.Nfs_ops.Write { fh; off = 0; data = fresh })
       with
      | Dfs.Nfs_ops.R_write _ -> ()
      | _ -> Alcotest.fail "write failed");
      Sim.Proc.wait (Sim.Time.ms 5);
      Dfs.Server.writeback server ~fh ~block:0;
      Sim.Proc.wait (Sim.Time.ms 5);
      (* The reader now sees fresh data from its LOCAL cache: zero
         remote traffic for this read. *)
      let dx_reads_before =
        Metrics.Account.total_of (Dfs.Clerk.stats reader) "dx reads"
      in
      (match
         Dfs.Clerk.perform reader (Dfs.Nfs_ops.Read { fh; off = 0; count = 64 })
       with
      | Dfs.Nfs_ops.R_data data ->
          check_bool "fresh contents" true
            (Bytes.equal data (Bytes.sub fresh 0 64))
      | _ -> Alcotest.fail "read failed");
      Alcotest.(check (float 0.01))
        "served locally, no remote read" dx_reads_before
        (Metrics.Account.total_of (Dfs.Clerk.stats reader) "dx reads"))

let crypto_is_involutive =
  QCheck.Test.make ~name:"crypto transform is an involution" ~count:200
    QCheck.(string_of_size Gen.(0 -- 2000))
    (fun s ->
      let b = Bytes.of_string s in
      let c = Rmem.Crypto.hardware_an1 in
      Bytes.equal b (Rmem.Crypto.transform c (Rmem.Crypto.transform c b)))

let crypto_keys_differ =
  QCheck.Test.make ~name:"different keys give different ciphertext" ~count:100
    QCheck.(string_of_size Gen.(8 -- 500))
    (fun s ->
      let b = Bytes.of_string s in
      let a = Rmem.Crypto.make ~key:1 ~per_word_cost:Sim.Time.zero in
      let c = Rmem.Crypto.make ~key:2 ~per_word_cost:Sim.Time.zero in
      not (Bytes.equal (Rmem.Crypto.transform a b) (Rmem.Crypto.transform c b)))

let burst_boundary_writes =
  (* Sizes straddling the 40-byte cell and the 320-byte burst edges. *)
  QCheck.Test.make ~name:"writes around chunking boundaries are exact" ~count:40
    QCheck.(oneofl [ 1; 39; 40; 41; 319; 320; 321; 639; 640; 641; 8191; 8192 ])
    (fun size ->
      let d = Rig.duo () in
      let payload = Bytes.init size (fun i -> Char.chr (i land 0xFF)) in
      Rig.run d (fun () ->
          let _, desc = Rig.shared_segment ~len:16384 d in
          Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:7 payload;
          Rmem.Remote_memory.fence d.Rig.rmem0 desc;
          Bytes.equal payload
            (Cluster.Address_space.read d.Rig.space1 ~addr:7 ~len:size)))

let suite =
  [
    Alcotest.test_case "heartbeat detects a crashed node" `Quick
      heartbeat_detects_crash;
    Alcotest.test_case "heartbeat detects a wedged publisher" `Quick
      heartbeat_detects_wedged_publisher;
    Alcotest.test_case "swab bit converts on write" `Quick swab_write_converts;
    Alcotest.test_case "swab bit converts on read" `Quick swab_read_converts;
    Alcotest.test_case "shared-key encryption is transparent" `Quick
      crypto_transparent_with_shared_key;
    Alcotest.test_case "missing key yields ciphertext" `Quick
      crypto_garbles_without_key;
    Alcotest.test_case "encryption costs are charged" `Quick
      crypto_costs_are_charged;
    Alcotest.test_case "crypto and swab compose" `Quick crypto_and_swab_compose;
    Alcotest.test_case "eager push updates a clerk's cache" `Quick
      eager_push_updates_clerk_cache;
    QCheck_alcotest.to_alcotest swab_is_involutive;
    QCheck_alcotest.to_alcotest crypto_is_involutive;
    QCheck_alcotest.to_alcotest crypto_keys_differ;
    QCheck_alcotest.to_alcotest burst_boundary_writes;
    QCheck_alcotest.to_alcotest crypto_swab_match_copying_path;
  ]
