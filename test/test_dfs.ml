(* Tests for the distributed file service. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- File store ---------------- *)

let store_namespace () =
  let store = Dfs.File_store.create () in
  let root = Dfs.File_store.root store in
  let dir = Dfs.File_store.mkdir store ~dir:root ~name:"d" () in
  let f = Dfs.File_store.create_file store ~dir ~name:"f" () in
  let l = Dfs.File_store.symlink store ~dir ~name:"l" ~target:"/elsewhere" in
  check_int "lookup finds file" f (Dfs.File_store.lookup store ~dir ~name:"f");
  Alcotest.(check string) "readlink" "/elsewhere" (Dfs.File_store.readlink store l);
  Alcotest.(check (list (pair string int)))
    "readdir in insertion order"
    [ ("f", f); ("l", l) ]
    (Dfs.File_store.readdir store dir);
  check_bool "duplicate rejected" true
    (try
       ignore (Dfs.File_store.create_file store ~dir ~name:"f" ());
       false
     with Dfs.File_store.Name_exists _ -> true);
  let m = Dfs.File_store.create_file store ~dir ~name:"m" () in
  check_bool "a duplicate of an addition not yet listed rejected" true
    (try
       ignore (Dfs.File_store.create_file store ~dir ~name:"m" ());
       false
     with Dfs.File_store.Name_exists _ -> true);
  Dfs.File_store.rename store ~from_dir:dir ~from_name:"f" ~to_dir:dir ~to_name:"g";
  Alcotest.(check (list (pair string int)))
    "later additions and a rename listed last, in order"
    [ ("l", l); ("m", m); ("g", f) ]
    (Dfs.File_store.readdir store dir);
  check_bool "missing name" true
    (try
       ignore (Dfs.File_store.lookup store ~dir ~name:"zz");
       false
     with Dfs.File_store.No_such_file _ -> true);
  check_bool "readlink on file" true
    (try
       ignore (Dfs.File_store.readlink store f);
       false
     with Dfs.File_store.Not_a_symlink _ -> true)

let store_data_paths =
  QCheck.Test.make ~name:"file store write/read roundtrip" ~count:100
    QCheck.(pair (int_bound 30000) (string_of_size Gen.(1 -- 20000)))
    (fun (off, payload) ->
      let store = Dfs.File_store.create () in
      let root = Dfs.File_store.root store in
      let f = Dfs.File_store.create_file store ~dir:root ~name:"f" () in
      let data = Bytes.of_string payload in
      Dfs.File_store.write store f ~off data;
      let back = Dfs.File_store.read store f ~off ~count:(Bytes.length data) in
      Bytes.equal back data
      && (Dfs.File_store.getattr store f).Dfs.File_store.size
         = off + Bytes.length data)

let store_holes_and_eof () =
  let store = Dfs.File_store.create () in
  let root = Dfs.File_store.root store in
  let f = Dfs.File_store.create_file store ~dir:root ~name:"f" () in
  Dfs.File_store.write store f ~off:10000 (Bytes.of_string "end");
  (* The hole reads as zeros. *)
  Alcotest.(check bytes) "hole" (Bytes.make 8 '\000')
    (Dfs.File_store.read store f ~off:100 ~count:8);
  (* Reads past EOF are short. *)
  check_int "short read at EOF" 3
    (Bytes.length (Dfs.File_store.read store f ~off:10000 ~count:100))

let store_mutations () =
  let store = Dfs.File_store.create () in
  let root = Dfs.File_store.root store in
  let dir = Dfs.File_store.mkdir store ~dir:root ~name:"d" () in
  let f = Dfs.File_store.create_file store ~dir ~name:"f" () in
  Dfs.File_store.write store f ~off:0 (Bytes.make 10000 'x');
  (* set_attr truncation zeros the dropped tail. *)
  Dfs.File_store.set_attr store f ~size:5000 ();
  check_int "truncated" 5000 (Dfs.File_store.getattr store f).Dfs.File_store.size;
  Dfs.File_store.set_attr store f ~size:10000 ();
  Alcotest.(check bytes) "tail zeroed after re-extend" (Bytes.make 100 '\000')
    (Dfs.File_store.read store f ~off:5000 ~count:100);
  (* A mode change leaves the size. *)
  Dfs.File_store.set_attr store f ~mode:0o600 ();
  check_int "mode set, size kept" 10000 (Dfs.File_store.getattr store f).Dfs.File_store.size;
  (* rename moves the entry. *)
  let dir2 = Dfs.File_store.mkdir store ~dir:root ~name:"d2" () in
  Dfs.File_store.rename store ~from_dir:dir ~from_name:"f" ~to_dir:dir2
    ~to_name:"g";
  check_int "reachable at new name" f (Dfs.File_store.lookup store ~dir:dir2 ~name:"g");
  check_bool "gone from old dir" true
    (try
       ignore (Dfs.File_store.lookup store ~dir ~name:"f");
       false
     with Dfs.File_store.No_such_file _ -> true);
  (* rmdir refuses non-empty, then succeeds. *)
  check_bool "rmdir non-empty" true
    (try
       Dfs.File_store.rmdir store ~dir:root ~name:"d2";
       false
     with Dfs.File_store.Not_empty _ -> true);
  Dfs.File_store.remove store ~dir:dir2 ~name:"g";
  Dfs.File_store.rmdir store ~dir:root ~name:"d2";
  check_bool "d2 gone" true
    (try
       ignore (Dfs.File_store.lookup store ~dir:root ~name:"d2");
       false
     with Dfs.File_store.No_such_file _ -> true);
  (* remove refuses directories. *)
  check_bool "remove on dir fails" true
    (try
       Dfs.File_store.remove store ~dir:root ~name:"d";
       false
     with Dfs.File_store.Not_a_file _ -> true)

let store_mtime_advances () =
  let store = Dfs.File_store.create () in
  let root = Dfs.File_store.root store in
  let f = Dfs.File_store.create_file store ~dir:root ~name:"f" () in
  let m1 = (Dfs.File_store.getattr store f).Dfs.File_store.mtime in
  Dfs.File_store.write store f ~off:0 (Bytes.make 4 'x');
  let m2 = (Dfs.File_store.getattr store f).Dfs.File_store.mtime in
  check_bool "mtime advanced" true (m2 > m1)

(* ---------------- Slot cache ---------------- *)

let slot_cache () =
  let space = Cluster.Address_space.create ~asid:3 () in
  Dfs.Slot_cache.create ~space ~base:0 { Dfs.Slot_cache.slots = 64; payload_bytes = 128 }

let slot_cache_basics () =
  let c = slot_cache () in
  check_bool "miss" true (Dfs.Slot_cache.lookup_local c ~key1:1 ~key2:2 = None);
  Dfs.Slot_cache.install c ~key1:1 ~key2:2 (Bytes.of_string "value");
  (match Dfs.Slot_cache.lookup_local c ~key1:1 ~key2:2 with
  | Some payload -> Alcotest.(check string) "hit" "value" (Bytes.to_string payload)
  | None -> Alcotest.fail "expected hit");
  (* A different key mapping to the same slot misses cleanly. *)
  Dfs.Slot_cache.invalidate c ~key1:1 ~key2:2;
  check_bool "invalidated" true
    (Dfs.Slot_cache.lookup_local c ~key1:1 ~key2:2 = None)

let slot_cache_addressing_pure =
  QCheck.Test.make ~name:"slot addressing matches cfg arithmetic" ~count:200
    QCheck.(pair (int_bound 100000) (int_bound 1000))
    (fun (key1, key2) ->
      (* An owner's install lands where a clerk's arithmetic looks. *)
      let space = Cluster.Address_space.create ~asid:3 () in
      let cfg = { Dfs.Slot_cache.slots = 64; payload_bytes = 128 } in
      let c = Dfs.Slot_cache.create ~space ~base:0 cfg in
      Dfs.Slot_cache.install c ~key1 ~key2 (Bytes.of_string "value");
      let addr = Dfs.Slot_cache.offset_of_key_cfg cfg ~key1 ~key2 in
      Dfs.Slot_cache.payload_length cfg space ~addr ~key1 ~key2 ~len:128 = 5)

(* The one slot rule, read in place: a valid flag, both keys, and a
   stored length within the slot; the usable length is capped at what
   the reader fetched. *)
let slot_cache_decode_rejects () =
  let space = Cluster.Address_space.create ~asid:3 () in
  let cfg = { Dfs.Slot_cache.slots = 64; payload_bytes = 128 } in
  let c = Dfs.Slot_cache.create ~space ~base:0 cfg in
  let addr = Dfs.Slot_cache.offset_of_key_cfg cfg ~key1:7 ~key2:8 in
  let usable ?(key1 = 7) ?(key2 = 8) len =
    Dfs.Slot_cache.payload_length cfg space ~addr ~key1 ~key2 ~len
  in
  let miss = Dfs.Slot_cache.miss in
  check_int "empty slot" miss (usable 128);
  Dfs.Slot_cache.install c ~key1:7 ~key2:8 (Bytes.of_string "data");
  check_int "right keys" 4 (usable 128);
  check_int "capped at the fetch" 2 (usable 2);
  check_int "wrong key1" miss (usable ~key1:6 128);
  check_int "wrong key2" miss (usable ~key2:9 128);
  let set_word off v = Cluster.Address_space.write_word space ~addr:(addr + off) v in
  set_word 0 5;
  check_int "invalid flag" miss (usable 128);
  check_bool "invalid flag, locally" true
    (Dfs.Slot_cache.lookup_local c ~key1:7 ~key2:8 = None);
  set_word 0 1;
  set_word 12 (-4);
  check_int "negative length" miss (usable 128);
  check_bool "negative length, locally" true
    (Dfs.Slot_cache.lookup_local c ~key1:7 ~key2:8 = None);
  set_word 12 129;
  check_int "length past the slot" miss (usable 128);
  set_word 12 128;
  check_int "a full slot" 128 (usable 128);
  (* The header a pusher writes makes the same slot usable. *)
  Cluster.Address_space.write space ~addr
    (Dfs.Slot_cache.header ~key1:7 ~key2:8 ~len:3);
  check_int "pushed header" 3 (usable 128);
  match Dfs.Slot_cache.lookup_local c ~key1:7 ~key2:8 with
  | Some p -> Alcotest.(check string) "payload copied once" "dat" (Bytes.to_string p)
  | None -> Alcotest.fail "expected hit"

(* ---------------- NFS op codecs ---------------- *)

let sample_attr =
  {
    Dfs.File_store.inode = 42;
    kind = Dfs.File_store.Regular;
    mode = 0o644;
    nlink = 1;
    uid = 10;
    gid = 20;
    size = 12345;
    atime = 1;
    mtime = 2;
    ctime = 3;
  }

let attr_roundtrip () =
  let back = Dfs.Nfs_ops.decode_attr (Dfs.Nfs_ops.encode_attr sample_attr) in
  check_bool "attr roundtrip" true (back = sample_attr);
  check_int "fattr is 68 bytes" 68
    (Bytes.length (Dfs.Nfs_ops.encode_attr sample_attr))

let op_gen =
  QCheck.Gen.(
    oneof
      [
        return Dfs.Nfs_ops.Null;
        return Dfs.Nfs_ops.Statfs;
        map (fun fh -> Dfs.Nfs_ops.Get_attr { fh }) (1 -- 10000);
        map (fun fh -> Dfs.Nfs_ops.Read_link { fh }) (1 -- 10000);
        map
          (fun (dir, name) -> Dfs.Nfs_ops.Lookup { dir; name })
          (tup2 (1 -- 1000) (string_size ~gen:(char_range 'a' 'z') (1 -- 30)));
        map
          (fun (fh, off, count) -> Dfs.Nfs_ops.Read { fh; off; count })
          (tup3 (1 -- 1000) (0 -- 100000) (0 -- 8192));
        map
          (fun (fh, count) -> Dfs.Nfs_ops.Read_dir { fh; count })
          (tup2 (1 -- 1000) (0 -- 4096));
        map
          (fun (fh, off, s) ->
            Dfs.Nfs_ops.Write { fh; off; data = Bytes.of_string s })
          (tup3 (1 -- 1000) (0 -- 100000) (string_size (0 -- 4096)));
        map
          (fun (fh, mode, size) -> Dfs.Nfs_ops.Set_attr { fh; mode; size })
          (tup3 (1 -- 1000) (0 -- 0o777) (0 -- 100000));
        map
          (fun (dir, name) -> Dfs.Nfs_ops.Create { dir; name })
          (tup2 (1 -- 1000) (string_size ~gen:(char_range 'a' 'z') (1 -- 30)));
        map
          (fun (dir, name) -> Dfs.Nfs_ops.Remove { dir; name })
          (tup2 (1 -- 1000) (string_size ~gen:(char_range 'a' 'z') (1 -- 30)));
        map
          (fun (dir, name) -> Dfs.Nfs_ops.Mkdir { dir; name })
          (tup2 (1 -- 1000) (string_size ~gen:(char_range 'a' 'z') (1 -- 30)));
        map
          (fun (dir, name) -> Dfs.Nfs_ops.Rmdir { dir; name })
          (tup2 (1 -- 1000) (string_size ~gen:(char_range 'a' 'z') (1 -- 30)));
        map
          (fun (from_dir, from_name, to_dir, to_name) ->
            Dfs.Nfs_ops.Rename { from_dir; from_name; to_dir; to_name })
          (tup4 (1 -- 1000)
             (string_size ~gen:(char_range 'a' 'z') (1 -- 20))
             (1 -- 1000)
             (string_size ~gen:(char_range 'a' 'z') (1 -- 20)));
      ])

let op_roundtrip =
  QCheck.Test.make ~name:"nfs op encode/decode roundtrip" ~count:300
    (QCheck.make op_gen) (fun op ->
      let request = Bytes.make Dfs.Layout.request_slot_bytes '\255' in
      let len = Dfs.Nfs_ops.request_into op request in
      let space = Cluster.Address_space.create ~asid:3 () in
      Cluster.Address_space.write space ~addr:100 (Bytes.sub request 0 len);
      (* Word 0 is the reply offset, Rmem.Hybrid.call's to fill: left as
         it was, and the op ends at the length returned. *)
      Bytes.get_int32_le request 0 = -1l
      && Bytes.get request len = '\255'
      &&
      match (Dfs.Nfs_ops.request_at space ~addr:104, op) with
      | Dfs.Nfs_ops.Op decoded, _ -> decoded = op
      | Dfs.Nfs_ops.Write_at { fh; off; len; data }, Dfs.Nfs_ops.Write w ->
          fh = w.fh && off = w.off
          && Bytes.equal (Cluster.Address_space.read space ~addr:data ~len) w.data
      | Dfs.Nfs_ops.Write_at _, _ -> false)

let result_roundtrip () =
  let results =
    [
      Dfs.Nfs_ops.R_null;
      Dfs.Nfs_ops.R_attr sample_attr;
      Dfs.Nfs_ops.R_lookup { fh = 7; attr = sample_attr };
      Dfs.Nfs_ops.R_link "/target";
      Dfs.Nfs_ops.R_data (Bytes.of_string "contents");
      Dfs.Nfs_ops.R_entries (Bytes.of_string "packed");
      Dfs.Nfs_ops.R_statfs
        { Dfs.File_store.total_blocks = 1; free_blocks = 2; files = 3; block_size = 4 };
      Dfs.Nfs_ops.R_write sample_attr;
      Dfs.Nfs_ops.R_error 13;
    ]
  in
  let space = Cluster.Address_space.create ~asid:0 () in
  List.iter
    (fun result ->
      let buffer = Bytes.make 128 '\255' in
      let len = Dfs.Nfs_ops.result_into result buffer ~pos:2 in
      let encoded = Bytes.sub buffer 2 len in
      Cluster.Address_space.write space ~addr:3 encoded;
      check_bool "result decoded in place" true
        (Dfs.Nfs_ops.result_at space ~addr:3 = result);
      check_bool "encoded within its length" true
        (Bytes.get buffer 1 = '\255' && Bytes.get buffer (2 + len) = '\255');
      let bulk ~entries data =
        let reply = Bytes.make 64 '\255' in
        let n = Dfs.Nfs_ops.bulk_header ~entries (Bytes.length data) reply ~pos:1 in
        Bytes.blit data 0 reply (1 + Dfs.Nfs_ops.bulk_pos) (Bytes.length data);
        check_bool "a bulk reply encodes as its result" true
          (Bytes.equal (Bytes.sub reply 1 n) encoded)
      in
      match result with
      | Dfs.Nfs_ops.R_data data -> bulk ~entries:false data
      | Dfs.Nfs_ops.R_entries data -> bulk ~entries:true data
      | _ -> ())
    results

(* The listing packed by a writer, entry by entry, as READDIR defines
   it; every prefix of it is what [entries_into] writes for its
   length. *)
let entries_prefixes () =
  let entries = [ ("a", 1); ("bcd", 2); ("efgh", 300); ("", 4); ("ijklmnopq", 5) ] in
  let w = Atm.Codec.writer () in
  List.iter
    (fun (name, inode) ->
      Atm.Codec.put_u32 w inode;
      Atm.Codec.put_string w name;
      let misalign = Atm.Codec.length w land 3 in
      if misalign <> 0 then Atm.Codec.put_padding w (4 - misalign))
    entries;
  let packed = Atm.Codec.contents w in
  check_int "entries_length" (Bytes.length packed)
    (Dfs.File_store.entries_length entries);
  for len = 0 to Bytes.length packed do
    let out = Bytes.make (len + 2) '*' in
    Dfs.File_store.entries_into entries out ~pos:1 ~len;
    check_bool
      (Printf.sprintf "the first %d bytes" len)
      true
      (Bytes.equal out
         (Bytes.concat Bytes.empty
            [ Bytes.of_string "*"; Bytes.sub packed 0 len; Bytes.of_string "*" ]))
  done

let rpc_codec_roundtrip =
  QCheck.Test.make ~name:"rpc marshal/unmarshal roundtrip" ~count:200
    (QCheck.make op_gen) (fun op ->
      let x = Dfs.Rpc_codec.marshal_op op in
      let reader = Rpckit.Xdr.reader (Rpckit.Xdr.contents x) in
      Dfs.Rpc_codec.unmarshal_op ~proc:(Dfs.Rpc_codec.proc_of_op op) reader = op)

let traffic_classification () =
  let t = Dfs.Nfs_ops.request_traffic (Dfs.Nfs_ops.Get_attr { fh = 1 }) in
  check_int "getattr request: xid + fh" 36 t.Dfs.Nfs_ops.control;
  check_int "no data in request" 0 t.Dfs.Nfs_ops.data;
  let t = Dfs.Nfs_ops.reply_traffic (Dfs.Nfs_ops.R_attr sample_attr) in
  check_int "attr reply data" 68 t.Dfs.Nfs_ops.data;
  let t =
    Dfs.Nfs_ops.request_traffic
      (Dfs.Nfs_ops.Write { fh = 1; off = 0; data = Bytes.make 1000 'x' })
  in
  check_int "write request data" 1000 t.Dfs.Nfs_ops.data

(* ---------------- Server + clerk integration ---------------- *)

let fixture = lazy (Experiments.Fixture.create ~clients:1 ())

let mutations_through_all_schemes () =
  let fixture = Lazy.force fixture in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  Experiments.Fixture.run fixture (fun () ->
      List.iter
        (fun scheme ->
          Dfs.Clerk.set_scheme clerk scheme;
          let tag = Dfs.Clerk.scheme_to_string scheme in
          let name = "made-" ^ tag in
          let root = Dfs.File_store.root fixture.Experiments.Fixture.store in
          (match
             Dfs.Clerk.perform clerk (Dfs.Nfs_ops.Create { dir = root; name })
           with
          | Dfs.Nfs_ops.R_lookup { fh; _ } ->
              (* Visible through a subsequent lookup and removable. *)
              (match
                 Dfs.Clerk.remote_fetch clerk
                   (Dfs.Nfs_ops.Lookup { dir = root; name })
               with
              | Dfs.Nfs_ops.R_lookup { fh = fh'; _ } ->
                  check_int (tag ^ ": lookup finds created file") fh fh'
              | _ -> Alcotest.fail (tag ^ ": lookup failed"));
              (match
                 Dfs.Clerk.perform clerk (Dfs.Nfs_ops.Remove { dir = root; name })
               with
              | Dfs.Nfs_ops.R_null -> ()
              | _ -> Alcotest.fail (tag ^ ": remove failed"))
          | _ -> Alcotest.fail (tag ^ ": create failed")))
        [ Dfs.Clerk.Dx; Dfs.Clerk.Hybrid1; Dfs.Clerk.Rpc_baseline ])


(* Directory mutations and failing ops through every scheme: each one
   carries the op to the server and its answer back, a failure as the
   store's errno, so a failed op is an answer and the server keeps
   serving. *)
let directory_ops_and_errors () =
  let fixture = Lazy.force fixture in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  let root = Dfs.File_store.root fixture.Experiments.Fixture.store in
  Experiments.Fixture.run fixture (fun () ->
      List.iter
        (fun scheme ->
          Dfs.Clerk.set_scheme clerk scheme;
          let tag = Dfs.Clerk.scheme_to_string scheme in
          let perform op = Dfs.Clerk.perform clerk op in
          let fh what = function
            | Dfs.Nfs_ops.R_lookup { fh; _ } -> fh
            | _ -> Alcotest.failf "%s: %s failed" tag what
          in
          let answers what expected got =
            check_bool (Printf.sprintf "%s: %s" tag what) true (got = expected)
          in
          let name = "dir-" ^ tag in
          let dir = fh "mkdir" (perform (Dfs.Nfs_ops.Mkdir { dir = root; name })) in
          let f = fh "create" (perform (Dfs.Nfs_ops.Create { dir; name = "f" })) in
          (match perform (Dfs.Nfs_ops.Set_attr { fh = f; mode = 0o600; size = 3 }) with
          | Dfs.Nfs_ops.R_attr a -> check_int (tag ^ ": set size") 3 a.Dfs.File_store.size
          | _ -> Alcotest.failf "%s: set_attr failed" tag);
          answers "rename" Dfs.Nfs_ops.R_null
            (perform
               (Dfs.Nfs_ops.Rename { from_dir = dir; from_name = "f"; to_dir = dir; to_name = "g" }));
          answers "lookup of the old name" (Dfs.Nfs_ops.R_error 2)
            (perform (Dfs.Nfs_ops.Lookup { dir; name = "f" }));
          answers "mkdir over a name" (Dfs.Nfs_ops.R_error 17)
            (perform (Dfs.Nfs_ops.Mkdir { dir = root; name }));
          answers "rmdir of a full directory" (Dfs.Nfs_ops.R_error 66)
            (perform (Dfs.Nfs_ops.Rmdir { dir = root; name }));
          answers "read of a directory" (Dfs.Nfs_ops.R_error 22)
            (perform (Dfs.Nfs_ops.Read { fh = dir; off = 0; count = 16 }));
          answers "listing of a file" (Dfs.Nfs_ops.R_error 20)
            (perform (Dfs.Nfs_ops.Read_dir { fh = f; count = 64 }));
          (* A DX write pushes its block into the server's cache
             unchecked, so only the control-transfer schemes refuse it:
             DX acknowledges it, and the server's writeback drops the
             block from its cache. *)
          let write = Dfs.Nfs_ops.Write { fh = dir; off = 0; data = Bytes.of_string "x" } in
          if scheme <> Dfs.Clerk.Dx then
            answers "write to a directory" (Dfs.Nfs_ops.R_error 22) (perform write)
          else begin
            let server = fixture.Experiments.Fixture.server in
            let read = Dfs.Nfs_ops.Read { fh = dir; off = 0; count = 16 } in
            check_bool "DX: write to a directory acknowledged" true
              (match perform write with Dfs.Nfs_ops.R_write _ -> true | _ -> false);
            Sim.Proc.wait (Sim.Time.ms 5);
            Dfs.Server.writeback server ~fh:dir ~block:0;
            answers "DX: its writeback dropped" (Dfs.Nfs_ops.R_error 22) (perform read);
            Dfs.Server.writeback server ~fh:dir ~block:0;
            answers "DX: and gone from the cache" (Dfs.Nfs_ops.R_error 22) (perform read)
          end;
          answers "remove" Dfs.Nfs_ops.R_null (perform (Dfs.Nfs_ops.Remove { dir; name = "g" }));
          answers "rmdir" Dfs.Nfs_ops.R_null (perform (Dfs.Nfs_ops.Rmdir { dir = root; name })))
        [ Dfs.Clerk.Dx; Dfs.Clerk.Hybrid1; Dfs.Clerk.Rpc_baseline ])

(* A Set_attr on a handle that names no file is answered errno 2 by
   every scheme, and the server keeps serving: its cache refresh acts
   only on a Set_attr that succeeded. *)
let set_attr_of_no_file () =
  let fixture = Lazy.force fixture in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  let bench_file = fixture.Experiments.Fixture.bench_file in
  Experiments.Fixture.run fixture (fun () ->
      List.iter
        (fun scheme ->
          Dfs.Clerk.set_scheme clerk scheme;
          let tag = Dfs.Clerk.scheme_to_string scheme in
          check_bool (tag ^ ": errno 2") true
            (Dfs.Clerk.perform clerk
               (Dfs.Nfs_ops.Set_attr { fh = 999_999; mode = 0o644; size = 0 })
            = Dfs.Nfs_ops.R_error 2);
          check_bool (tag ^ ": still serving") true
            (match
               Dfs.Clerk.perform clerk
                 (Dfs.Nfs_ops.Get_attr { fh = bench_file })
             with
            | Dfs.Nfs_ops.R_attr a -> a.Dfs.File_store.inode = bench_file
            | _ -> false))
        [ Dfs.Clerk.Dx; Dfs.Clerk.Hybrid1; Dfs.Clerk.Rpc_baseline ])

(* The warm walk installs every block as the store holds it: each usable
   file-cache slot is the block's bytes, padded with zeros to a whole
   block.  So is a re-warmed slot after a truncating Set_attr, the block
   past the new end all zeros. *)
let warmed_blocks_match_store () =
  let fixture = Experiments.Fixture.create ~clients:1 () in
  let server = fixture.Experiments.Fixture.server in
  let store = fixture.Experiments.Fixture.store in
  let block_bytes = Dfs.File_store.block_bytes in
  let padded fh block =
    let b = Bytes.make block_bytes '\000' in
    let data =
      Dfs.File_store.read store fh ~off:(block * block_bytes) ~count:block_bytes
    in
    Bytes.blit data 0 b 0 (Bytes.length data);
    b
  in
  let check_slot tag fh block =
    match Dfs.Server.cached_block server ~fh ~block with
    | Some data ->
        if not (Bytes.equal data (padded fh block)) then
          Alcotest.failf "%s: slot (%d, %d) is not the store's block" tag fh
            block;
        true
    | None -> false
  in
  let hits = ref 0 and blocks = ref 0 in
  let rec walk dir =
    List.iter
      (fun (_, fh) ->
        let attr = Dfs.File_store.getattr store fh in
        match attr.Dfs.File_store.kind with
        | Dfs.File_store.Regular ->
            let size = attr.Dfs.File_store.size in
            let last = Int.max 1 ((size + block_bytes - 1) / block_bytes) - 1 in
            for block = 0 to last do
              incr blocks;
              if check_slot "warm" fh block then incr hits
            done
        | Dfs.File_store.Directory -> walk fh
        | Dfs.File_store.Symlink -> ())
      (Dfs.File_store.readdir store dir)
  in
  walk (Dfs.File_store.root store);
  (* Direct-mapped slots lose some blocks to collisions. *)
  check_bool "most blocks cached" true (!hits * 2 > !blocks);
  let file = fixture.Experiments.Fixture.bench_file in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  Experiments.Fixture.run fixture (fun () ->
      Dfs.Clerk.set_scheme clerk Dfs.Clerk.Hybrid1;
      check_bool "truncated" true
        (match
           Dfs.Clerk.perform clerk
             (Dfs.Nfs_ops.Set_attr { fh = file; mode = 0o644; size = 5000 })
         with
        | Dfs.Nfs_ops.R_attr a -> a.Dfs.File_store.size = 5000
        | _ -> false));
  Experiments.Fixture.recache_bench fixture;
  check_bool "re-warmed boundary block" true (check_slot "truncated" file 0);
  check_bool "re-warmed block past the end" true
    (check_slot "truncated" file 1);
  check_bool "which is all zeros" true
    (Dfs.Server.cached_block server ~fh:file ~block:1
    = Some (Bytes.make block_bytes '\000'))

let schemes_agree () =
  let fixture = Lazy.force fixture in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  Experiments.Fixture.run fixture (fun () ->
      List.iter
        (fun (_name, op) ->
          let results =
            List.map
              (fun scheme ->
                Dfs.Clerk.set_scheme clerk scheme;
                Dfs.Clerk.remote_fetch clerk op)
              [ Dfs.Clerk.Dx; Dfs.Clerk.Hybrid1; Dfs.Clerk.Rpc_baseline ]
          in
          match results with
          | [ dx; hy; rpc ] ->
              check_bool "dx = hy" true (dx = hy);
              check_bool "hy = rpc" true (hy = rpc)
          | _ -> assert false)
        (List.filter
           (fun (_, op) ->
             (* Writes mutate state between schemes; compare reads. *)
             match op with Dfs.Nfs_ops.Write _ -> false | _ -> true)
           (Experiments.Fixture.figure_ops fixture)))

let dx_matches_store_contents () =
  let fixture = Lazy.force fixture in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  Experiments.Fixture.run fixture (fun () ->
      Dfs.Clerk.set_scheme clerk Dfs.Clerk.Dx;
      let fh = fixture.Experiments.Fixture.bench_file in
      match
        Dfs.Clerk.remote_fetch clerk (Dfs.Nfs_ops.Read { fh; off = 0; count = 64 })
      with
      | Dfs.Nfs_ops.R_data data ->
          let expected =
            Dfs.File_store.read fixture.Experiments.Fixture.store fh ~off:0
              ~count:64
          in
          check_bool "bytes match the store" true (Bytes.equal data expected)
      | _ -> Alcotest.fail "expected data")

let dx_miss_falls_back_to_control () =
  let fixture = Lazy.force fixture in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  Experiments.Fixture.run fixture (fun () ->
      Dfs.Clerk.set_scheme clerk Dfs.Clerk.Dx;
      (* A file created after cache warming: the DX probe misses and the
         clerk transfers control, still returning the right answer. *)
      let store = fixture.Experiments.Fixture.store in
      let root = Dfs.File_store.root store in
      let fresh = Dfs.File_store.create_file store ~dir:root ~name:"fresh.dat" () in
      Dfs.File_store.write store fresh ~off:0 (Bytes.of_string "fresh!");
      let before =
        Metrics.Account.total_of (Dfs.Clerk.stats clerk) "dx misses -> control"
      in
      (match
         Dfs.Clerk.remote_fetch clerk (Dfs.Nfs_ops.Get_attr { fh = fresh })
       with
      | Dfs.Nfs_ops.R_attr attr -> check_int "size via fallback" 6 attr.Dfs.File_store.size
      | _ -> Alcotest.fail "expected attr");
      Alcotest.(check (float 0.01)) "fallback counted" (before +. 1.)
        (Metrics.Account.total_of (Dfs.Clerk.stats clerk) "dx misses -> control"))

let dx_read_crosses_blocks () =
  let fixture = Lazy.force fixture in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  Experiments.Fixture.run fixture (fun () ->
      Experiments.Fixture.recache_bench fixture;
      Dfs.Clerk.set_scheme clerk Dfs.Clerk.Dx;
      let fh = fixture.Experiments.Fixture.bench_file in
      (* An unaligned read spanning the block-0/block-1 boundary. *)
      match
        Dfs.Clerk.remote_fetch clerk
          (Dfs.Nfs_ops.Read { fh; off = 8000; count = 1000 })
      with
      | Dfs.Nfs_ops.R_data data ->
          let expected =
            Dfs.File_store.read fixture.Experiments.Fixture.store fh ~off:8000
              ~count:1000
          in
          check_bool "cross-block bytes match" true (Bytes.equal data expected)
      | _ -> Alcotest.fail "expected data")

let write_push_and_writeback () =
  let fixture = Lazy.force fixture in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  Experiments.Fixture.run fixture (fun () ->
      Dfs.Clerk.set_scheme clerk Dfs.Clerk.Dx;
      let fh = fixture.Experiments.Fixture.bench_file in
      let payload = Bytes.make 8192 'Q' in
      (match
         Dfs.Clerk.remote_fetch clerk
           (Dfs.Nfs_ops.Write { fh; off = 8192; data = payload })
       with
      | Dfs.Nfs_ops.R_write _ -> ()
      | _ -> Alcotest.fail "expected write ack");
      Sim.Proc.wait (Sim.Time.ms 5);
      Dfs.Server.writeback fixture.Experiments.Fixture.server ~fh ~block:1;
      let back =
        Dfs.File_store.read fixture.Experiments.Fixture.store fh ~off:8192
          ~count:8192
      in
      check_bool "pushed block applied" true (Bytes.equal back payload))

let concurrent_hybrid_clients () =
  (* Several clients' Hybrid-1 requests land in distinct request slots
     and are served serially by the notification handler without
     cross-talk. *)
  let fixture = Experiments.Fixture.create ~clients:3 () in
  Experiments.Fixture.run fixture (fun () ->
      let answered = ref 0 in
      let finished = ref 0 in
      let all_done = Sim.Ivar.create () in
      for c = 0 to 2 do
        let clerk = Experiments.Fixture.clerk fixture c in
        Dfs.Clerk.set_scheme clerk Dfs.Clerk.Hybrid1;
        Cluster.Node.spawn (Dfs.Clerk.node clerk) (fun () ->
            for _ = 1 to 10 do
              match
                Dfs.Clerk.remote_fetch clerk
                  (Dfs.Nfs_ops.Get_attr
                     { fh = fixture.Experiments.Fixture.bench_file })
              with
              | Dfs.Nfs_ops.R_attr attr ->
                  check_int "right inode back"
                    fixture.Experiments.Fixture.bench_file
                    attr.Dfs.File_store.inode;
                  incr answered
              | _ -> Alcotest.fail "hybrid getattr failed"
            done;
            incr finished;
            if !finished = 3 then Sim.Ivar.fill all_done ())
      done;
      Sim.Ivar.read all_done;
      check_int "server answered all 30" 30 !answered)

let dx_readdir_multi_chunk () =
  (* A directory whose packed listing exceeds one 4 KB chunk: the DX
     path stitches chunks together and matches the HY answer. *)
  let fixture = Lazy.force fixture in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  Experiments.Fixture.run fixture (fun () ->
      let store = fixture.Experiments.Fixture.store in
      let root = Dfs.File_store.root store in
      let wide = Dfs.File_store.mkdir store ~dir:root ~name:"very-wide" () in
      for i = 0 to 499 do
        ignore
          (Dfs.File_store.create_file store ~dir:wide
             ~name:(Printf.sprintf "e%04d" i) ()
            : int)
      done;
      Dfs.Server.cache_dir fixture.Experiments.Fixture.server wide;
      let op = Dfs.Nfs_ops.Read_dir { fh = wide; count = 7000 } in
      Dfs.Clerk.set_scheme clerk Dfs.Clerk.Dx;
      let dx = Dfs.Clerk.remote_fetch clerk op in
      Dfs.Clerk.set_scheme clerk Dfs.Clerk.Hybrid1;
      let hy = Dfs.Clerk.remote_fetch clerk op in
      match (dx, hy) with
      | Dfs.Nfs_ops.R_entries a, Dfs.Nfs_ops.R_entries b ->
          check_bool "multi-chunk DX matches HY" true (Bytes.equal a b);
          check_bool "crossed the chunk boundary" true (Bytes.length a > 4096)
      | _ -> Alcotest.fail "expected entries")

(* A DX ReadDir assembles the store's own listing, cut to [count], from
   the chunks the server cached: one that ends inside its first chunk,
   one that fills whole chunks exactly (so the next chunk is missing and
   ends it), and one whose last chunk is short. *)
let dx_misses clerk =
  Metrics.Account.total_of (Dfs.Clerk.stats clerk) "dx misses -> control"

let dx_readdir_chunk_ends () =
  let fixture = Lazy.force fixture in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  Experiments.Fixture.run fixture (fun () ->
      Dfs.Clerk.set_scheme clerk Dfs.Clerk.Dx;
      let store = fixture.Experiments.Fixture.store in
      let root = Dfs.File_store.root store in
      let dir_of name entries =
        let d = Dfs.File_store.mkdir store ~dir:root ~name () in
        for i = 0 to entries - 1 do
          ignore
            (Dfs.File_store.create_file store ~dir:d
               ~name:(Printf.sprintf "f%07d" i) ()
              : int)
        done;
        Dfs.Server.cache_dir fixture.Experiments.Fixture.server d;
        d
      in
      let listing d =
        let entries = Dfs.File_store.readdir store d in
        let len = Dfs.File_store.entries_length entries in
        let b = Bytes.create len in
        Dfs.File_store.entries_into entries b ~pos:0 ~len;
        b
      in
      let check_dir tag d ~count ~expect_len =
        let full = listing d in
        let expected = Bytes.sub full 0 (Int.min count (Bytes.length full)) in
        let before = dx_misses clerk in
        (match
           Dfs.Clerk.remote_fetch clerk (Dfs.Nfs_ops.Read_dir { fh = d; count })
         with
        | Dfs.Nfs_ops.R_entries got ->
            check_int (tag ^ ": length") expect_len (Bytes.length got);
            check_bool (tag ^ ": the store's bytes") true (Bytes.equal got expected)
        | _ -> Alcotest.fail (tag ^ ": expected entries"));
        Alcotest.(check (float 0.01)) (tag ^ ": served by DX") before (dx_misses clerk)
      in
      let small = dir_of "ends-in-chunk" 10 in
      check_dir "inside the first chunk" small ~count:4096 ~expect_len:160;
      check_dir "cut to count" small ~count:64 ~expect_len:64;
      (* 16-byte entries: 256 fill the first 4 KB chunk exactly. *)
      let exact = dir_of "one-full-chunk" 256 in
      check_int "listing is one chunk" 4096 (Bytes.length (listing exact));
      check_dir "later chunk missing" exact ~count:7000 ~expect_len:4096;
      let longer = dir_of "short-second-chunk" 300 in
      check_dir "short second chunk" longer ~count:8192 ~expect_len:4800;
      check_dir "cut inside the second chunk" longer ~count:4500 ~expect_len:4500)

(* A file slot whose stored length is shorter than the span a Read
   needs is a DX miss: the clerk transfers control and still returns
   the store's bytes. *)
let dx_read_short_slot () =
  let fixture = Lazy.force fixture in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  Experiments.Fixture.run fixture (fun () ->
      Dfs.Clerk.set_scheme clerk Dfs.Clerk.Dx;
      let store = fixture.Experiments.Fixture.store in
      let root = Dfs.File_store.root store in
      let fh = Dfs.File_store.create_file store ~dir:root ~name:"short.dat" () in
      Dfs.File_store.write store fh ~off:0 (Bytes.make 8192 's');
      Dfs.Server.cache_file_block fixture.Experiments.Fixture.server fh ~block:0;
      (* The clerk pushes a 100-byte block, then reads past it. *)
      (match
         Dfs.Clerk.remote_fetch clerk
           (Dfs.Nfs_ops.Write { fh; off = 0; data = Bytes.make 100 'p' })
       with
      | Dfs.Nfs_ops.R_write _ -> ()
      | _ -> Alcotest.fail "expected write ack");
      Sim.Proc.wait (Sim.Time.ms 5);
      let read count =
        match
          Dfs.Clerk.remote_fetch clerk (Dfs.Nfs_ops.Read { fh; off = 0; count })
        with
        | Dfs.Nfs_ops.R_data data -> data
        | _ -> Alcotest.fail "expected data"
      in
      let before = dx_misses clerk in
      check_bool "within the stored length: the pushed bytes" true
        (Bytes.equal (read 100) (Bytes.make 100 'p'));
      Alcotest.(check (float 0.01)) "served by DX" before (dx_misses clerk);
      check_bool "past it: the store's bytes" true
        (Bytes.equal (read 200) (Dfs.File_store.read store fh ~off:0 ~count:200));
      Alcotest.(check (float 0.01)) "transferred control" (before +. 1.)
        (dx_misses clerk))

(* The host words of one DX op through the path the benchmark drives
   (local RPC into the clerk, then the remote path) on a warmed server
   cache: the waits of the READs and LRPC, the result, and the one copy
   of its payload.  Budgets are the figures plus 10%. *)
let dx_budget what ~budget op () =
  let fixture = Lazy.force fixture in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  let words =
    Experiments.Fixture.run fixture (fun () ->
        Experiments.Fixture.recache_bench fixture;
        Dfs.Clerk.set_scheme clerk Dfs.Clerk.Dx;
        let op = op fixture in
        let before = dx_misses clerk in
        let words =
          Rig.words_per_op ~n:100 (fun () ->
              ignore
                (Cluster.Lrpc.call (Dfs.Clerk.node clerk)
                   (Dfs.Clerk.remote_fetch clerk) op
                  : Dfs.Nfs_ops.result))
        in
        Alcotest.(check (float 0.01)) (what ^ ": all DX hits") before
          (dx_misses clerk);
        words)
  in
  Rig.within_budget what ~words ~budget

let dx_getattr_budget =
  dx_budget "DX GetAttribute" ~budget:28.9 (fun f ->
      Dfs.Nfs_ops.Get_attr { fh = f.Experiments.Fixture.bench_file })

let dx_lookup_budget =
  dx_budget "DX Lookup" ~budget:30. (fun f ->
      Dfs.Nfs_ops.Lookup { dir = f.Experiments.Fixture.bench_dir; name = "entry0001" })

let dx_read_budget =
  dx_budget "DX Read 8K" ~budget:1145.4 (fun f ->
      Dfs.Nfs_ops.Read { fh = f.Experiments.Fixture.bench_file; off = 0; count = 8192 })

let dx_readdir_budget =
  dx_budget "DX ReadDir 4K" ~budget:584.4 (fun f ->
      Dfs.Nfs_ops.Read_dir { fh = f.Experiments.Fixture.bench_dir; count = 4096 })

let dx_null_budget = dx_budget "DX Null" ~budget:14.6 (fun _ -> Dfs.Nfs_ops.Null)
let dx_statfs_budget = dx_budget "DX Statfs" ~budget:26.7 (fun _ -> Dfs.Nfs_ops.Statfs)

let dx_readlink_budget =
  dx_budget "DX ReadLink" ~budget:21.2 (fun f ->
      Dfs.Nfs_ops.Read_link { fh = f.Experiments.Fixture.bench_link })

(* The same path under Hybrid-1: the request encoded into the
   endpoint's request buffer, decoded by the server where it landed in
   its slot, the server's reply encoded once into a pooled reply buffer
   with its header in front, the delivery in a pooled process, and the
   result decoded where it landed.  Each figure repeats at n = 100 and
   n = 400.  A Read 8K holds one 1,025-word buffer, the caller's
   result: the server's reply buffer, a second, took it to 2,381
   words.  A Write 8K holds none: the clerk encodes its data into the
   request buffer, and the server copies it from the slot straight into
   the store's blocks (1,428 words with the request built per call). *)
let hy_budget what ~budget op () =
  let fixture = Lazy.force fixture in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  let measure n =
    Experiments.Fixture.run fixture (fun () ->
        Dfs.Clerk.set_scheme clerk Dfs.Clerk.Hybrid1;
        let op = op fixture in
        let words =
          Rig.words_per_op ~n (fun () ->
              ignore
                (Cluster.Lrpc.call (Dfs.Clerk.node clerk)
                   (Dfs.Clerk.remote_fetch clerk) op
                  : Dfs.Nfs_ops.result))
        in
        Dfs.Clerk.set_scheme clerk Dfs.Clerk.Dx;
        words)
  in
  let words = measure 100 in
  Alcotest.(check (float 0.5)) (what ^ ": the same at n = 400") words (measure 400);
  Rig.within_budget what ~words ~budget

let hy_getattr_budget =
  hy_budget "HY GetAttribute" ~budget:91.6 (fun f ->
      Dfs.Nfs_ops.Get_attr { fh = f.Experiments.Fixture.bench_file })

let hy_read_budget =
  hy_budget "HY Read 8K" ~budget:1266.4 (fun f ->
      Dfs.Nfs_ops.Read { fh = f.Experiments.Fixture.bench_file; off = 0; count = 8192 })

let hy_readdir_budget =
  hy_budget "HY ReadDir 1K" ~budget:224.7 (fun f ->
      Dfs.Nfs_ops.Read_dir { fh = f.Experiments.Fixture.bench_dir; count = 1024 })

let hy_write_budget =
  hy_budget "HY Write 8K" ~budget:190.6 (fun f ->
      Dfs.Nfs_ops.Write
        { fh = f.Experiments.Fixture.bench_file; off = 0; data = Bytes.make 8192 'w' })

(* A DX Read 8K that misses the server cache (its block never cached)
   and transfers control.  The miss allocates no result, so the fetch
   allocates its DX hit's words (1,043: the result, 1,025, and the READ)
   plus the Hybrid-1 exchange without its result, a per-call constant
   of at most [hy_constant] words (114): the call's fixed part (HY
   GetAttribute's 83 words, its result included).  The reply's 26
   frames add nothing: they are served at interrupt level, with no
   process switch (the constant was 222 words with one per frame).
   Both figures come from one fresh fixture; the hit reads the
   benchmark file. *)
let hy_constant = 126.

let dx_read_miss_budget () =
  let fixture = Experiments.Fixture.create ~clients:1 () in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  let measure op =
    Rig.words_per_op ~n:100 (fun () ->
        ignore
          (Cluster.Lrpc.call (Dfs.Clerk.node clerk) (Dfs.Clerk.remote_fetch clerk) op
            : Dfs.Nfs_ops.result))
  in
  let hit, miss, misses =
    Experiments.Fixture.run fixture (fun () ->
        Dfs.Clerk.set_scheme clerk Dfs.Clerk.Dx;
        let store = fixture.Experiments.Fixture.store in
        let fh =
          Dfs.File_store.create_file store ~dir:(Dfs.File_store.root store)
            ~name:"uncached.dat" ()
        in
        Dfs.File_store.write store fh ~off:0 (Bytes.make 8192 'u');
        let hit =
          measure
            (Dfs.Nfs_ops.Read
               { fh = fixture.Experiments.Fixture.bench_file; off = 0; count = 8192 })
        in
        let before = dx_misses clerk in
        let miss = measure (Dfs.Nfs_ops.Read { fh; off = 0; count = 8192 }) in
        (hit, miss, dx_misses clerk -. before))
  in
  Alcotest.(check (float 0.01)) "every read a miss, the warm-up's too" 101.
    misses;
  Rig.within_budget "DX Read 8K miss, then HY" ~words:miss ~budget:1270.8;
  check_bool
    (Printf.sprintf "within its DX hit (%.2f words) + %g" hit hy_constant)
    true
    (miss <= hit +. hy_constant)

(* A Hybrid-1 fetch whose reply never lands: the server takes the
   request's notification and runs no procedure.  The clerk sets its
   100 ms deadline when the request write returns, 13.2 us after the
   call, polls every 5 us, and gives up at the first poll past the
   deadline: 100.005 ms later, at the instant the poll loop it replaced
   gave up. *)
let hy_timeout () =
  let fixture = Experiments.Fixture.create ~clients:1 () in
  List.iter
    (fun segment ->
      if Rmem.Segment.name segment = Dfs.Layout.request_name then
        Rmem.Notification.set_signal_handler (Rmem.Segment.notification segment)
          (Some ignore))
    (Rmem.Remote_memory.exports fixture.Experiments.Fixture.rmems.(0));
  let clerk = Experiments.Fixture.clerk fixture 0 in
  let called, raised =
    Experiments.Fixture.run fixture (fun () ->
        Dfs.Clerk.set_scheme clerk Dfs.Clerk.Hybrid1;
        let called = Experiments.Fixture.now fixture in
        match
          Dfs.Clerk.remote_fetch clerk
            (Dfs.Nfs_ops.Get_attr { fh = fixture.Experiments.Fixture.bench_file })
        with
        | _ -> Alcotest.fail "a reply landed"
        | exception Rmem.Status.Timeout -> (called, Experiments.Fixture.now fixture))
  in
  let written = Sim.Time.add called (Sim.Time.ns 13_200) in
  check_int "raised 100.005 ms after the request write returned"
    (Sim.Time.add written (Sim.Time.ns 100_005_000))
    raised;
  check_int "at the instant the poll loop raised" 304_517_096 raised


let clerk_local_cache_hits () =
  let fixture = Lazy.force fixture in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  Experiments.Fixture.run fixture (fun () ->
      Dfs.Clerk.set_scheme clerk Dfs.Clerk.Dx;
      let op = Dfs.Nfs_ops.Get_attr { fh = fixture.Experiments.Fixture.bench_file } in
      let r1 = Dfs.Clerk.perform clerk op in
      let before =
        Metrics.Account.total_of (Dfs.Clerk.stats clerk) "local hits"
      in
      let r2 = Dfs.Clerk.perform clerk op in
      check_bool "same answer" true (r1 = r2);
      Alcotest.(check (float 0.01)) "second was a local hit" (before +. 1.)
        (Metrics.Account.total_of (Dfs.Clerk.stats clerk) "local hits"))

(* ---------------- Coherence ---------------- *)

let coherence_mutual_exclusion () =
  let testbed = Cluster.Testbed.create ~nodes:3 () in
  let rmems =
    Array.init 3 (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  Cluster.Testbed.run testbed (fun () ->
      let names = Array.map Names.Clerk.create rmems in
      Array.iter Names.Clerk.serve_lookup_requests names;
      let manager = Dfs.Coherence.export_tokens ~names:names.(0) () in
      let c1 =
        Dfs.Coherence.connect ~names:names.(1)
          ~server:(Cluster.Node.addr (Cluster.Testbed.node testbed 0))
          ()
      in
      let c2 =
        Dfs.Coherence.connect ~names:names.(2)
          ~server:(Cluster.Node.addr (Cluster.Testbed.node testbed 0))
          ()
      in
      let in_section = ref false in
      let violations = ref 0 in
      let done_count = ref 0 in
      let all_done = Sim.Ivar.create () in
      let worker client id =
        Cluster.Node.spawn
          (Cluster.Testbed.node testbed id)
          (fun () ->
            for _ = 1 to 10 do
              Dfs.Coherence.acquire client ~token:0;
              if !in_section then incr violations;
              in_section := true;
              Sim.Proc.wait (Sim.Time.us 50);
              in_section := false;
              Dfs.Coherence.release client ~token:0
            done;
            incr done_count;
            if !done_count = 2 then Sim.Ivar.fill all_done ())
      in
      worker c1 1;
      worker c2 2;
      Sim.Ivar.read all_done;
      check_int "no mutual-exclusion violations" 0 !violations;
      check_int "token free at the end" 0 (Dfs.Coherence.holder_of manager ~token:0))

let delayed_revocation () =
  let testbed = Cluster.Testbed.create ~nodes:3 () in
  let rmems =
    Array.init 3 (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  Cluster.Testbed.run testbed (fun () ->
      let names = Array.map Names.Clerk.create rmems in
      Array.iter Names.Clerk.serve_lookup_requests names;
      let (_ : Dfs.Coherence.manager) =
        Dfs.Coherence.export_tokens ~names:names.(0) ()
      in
      let server = Cluster.Node.addr (Cluster.Testbed.node testbed 0) in
      let holder = Dfs.Coherence.connect ~names:names.(1) ~server () in
      let contender = Dfs.Coherence.connect ~names:names.(2) ~server () in
      let engine = Cluster.Testbed.engine testbed in
      (* The holder takes the token on a long lease but honors
         revocation requests. *)
      Dfs.Coherence.acquire holder ~token:5;
      let given_back = ref Sim.Time.zero in
      Cluster.Node.spawn
        (Cluster.Testbed.node testbed 1)
        (fun () ->
          Dfs.Coherence.hold_with_lease holder ~token:5 ~lease:(Sim.Time.ms 50);
          given_back := Sim.Engine.now engine);
      Sim.Proc.wait (Sim.Time.us 200);
      (* The contender asks for revocation after two failed CAS tries
         and must get the token long before the 50 ms lease expires. *)
      let t0 = Sim.Engine.now engine in
      Dfs.Coherence.acquire ~revoke_after:2 contender ~token:5;
      let waited = Sim.Time.to_ms (Sim.Time.diff (Sim.Engine.now engine) t0) in
      check_bool "acquired well before the lease expired" true (waited < 20.);
      check_bool "holder honored the revocation" true
        (!given_back > t0 && Sim.Time.to_ms (Sim.Time.diff !given_back t0) < 20.);
      Dfs.Coherence.release contender ~token:5;
      (* A second round: the contender's second revocation request to
         the same holder reuses its import. *)
      Dfs.Coherence.acquire holder ~token:5;
      Cluster.Node.spawn
        (Cluster.Testbed.node testbed 1)
        (fun () ->
          Dfs.Coherence.hold_with_lease holder ~token:5 ~lease:(Sim.Time.ms 50));
      Sim.Proc.wait (Sim.Time.us 200);
      let t1 = Sim.Engine.now engine in
      Dfs.Coherence.acquire ~revoke_after:2 contender ~token:5;
      check_bool "revoked again well before the lease expired" true
        (Sim.Time.to_ms (Sim.Time.diff (Sim.Engine.now engine) t1) < 20.);
      Dfs.Coherence.release contender ~token:5)

let lease_expires_without_revocation () =
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let rmems =
    Array.init 2 (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  Cluster.Testbed.run testbed (fun () ->
      let names = Array.map Names.Clerk.create rmems in
      Array.iter Names.Clerk.serve_lookup_requests names;
      let manager = Dfs.Coherence.export_tokens ~names:names.(0) () in
      let client =
        Dfs.Coherence.connect ~names:names.(1)
          ~server:(Cluster.Node.addr (Cluster.Testbed.node testbed 0))
          ()
      in
      Dfs.Coherence.acquire client ~token:3;
      check_bool "held" true (Dfs.Coherence.holder_of manager ~token:3 <> 0);
      let engine = Cluster.Testbed.engine testbed in
      let t0 = Sim.Engine.now engine in
      Dfs.Coherence.hold_with_lease client ~token:3 ~lease:(Sim.Time.ms 5);
      let held_for = Sim.Time.to_ms (Sim.Time.diff (Sim.Engine.now engine) t0) in
      check_bool "held roughly the whole lease" true
        (held_for >= 4.5 && held_for < 8.);
      check_int "released at expiry" 0 (Dfs.Coherence.holder_of manager ~token:3))

let coherence_release_requires_ownership () =
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let rmems =
    Array.init 2 (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  Alcotest.(check bool) "foreign release fails" true
    (try
       Cluster.Testbed.run testbed (fun () ->
           let names = Array.map Names.Clerk.create rmems in
           Array.iter Names.Clerk.serve_lookup_requests names;
           let (_ : Dfs.Coherence.manager) =
             Dfs.Coherence.export_tokens ~names:names.(0) ()
           in
           let c =
             Dfs.Coherence.connect ~names:names.(1)
               ~server:(Cluster.Node.addr (Cluster.Testbed.node testbed 0))
               ()
           in
           Dfs.Coherence.release c ~token:0);
       false
     with Failure _ -> true)

let coherence_invariant_tracks_table () =
  let testbed = Cluster.Testbed.create ~nodes:3 () in
  let rmems =
    Array.init 3 (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  Cluster.Testbed.run testbed (fun () ->
      let names = Array.map Names.Clerk.create rmems in
      Array.iter Names.Clerk.serve_lookup_requests names;
      let server = Cluster.Node.addr (Cluster.Testbed.node testbed 0) in
      let manager = Dfs.Coherence.export_tokens ~names:names.(0) () in
      let c1 = Dfs.Coherence.connect ~names:names.(1) ~server () in
      check_bool "empty client trivially coherent" true
        (Dfs.Coherence.invariant manager ~clients:[ c1 ]);
      Dfs.Coherence.acquire c1 ~token:0;
      check_bool "held token is published" true
        (Dfs.Coherence.invariant manager ~clients:[ c1 ]);
      (* A buggy third party frees the token behind the holder's back;
         the invariant must notice the drift. *)
      let thief = Names.Api.import ~hint:server names.(2) "dfs:tokens" in
      let me1 =
        Atm.Addr.to_int (Cluster.Node.addr (Cluster.Testbed.node testbed 1)) + 1
      in
      let stolen =
        Rmem.Remote_memory.cas_wait rmems.(2) thief ~doff:0 ~old_value:me1
          ~new_value:0 ()
        = me1
      in
      check_bool "steal succeeded" true stolen;
      check_bool "drift detected" false
        (Dfs.Coherence.invariant manager ~clients:[ c1 ]);
      let restored =
        Rmem.Remote_memory.cas_wait rmems.(2) thief ~doff:0 ~old_value:0
          ~new_value:me1 ()
        = 0
      in
      check_bool "restored" true restored;
      Dfs.Coherence.release c1 ~token:0;
      check_bool "coherent after release" true
        (Dfs.Coherence.invariant manager ~clients:[ c1 ]))

let suite =
  [
    Alcotest.test_case "store namespace" `Quick store_namespace;
    Alcotest.test_case "store holes and EOF" `Quick store_holes_and_eof;
    Alcotest.test_case "store mtime advances" `Quick store_mtime_advances;
    Alcotest.test_case "store mutations" `Quick store_mutations;
    Alcotest.test_case "mutations through all schemes" `Quick
      mutations_through_all_schemes;
    Alcotest.test_case "slot cache basics" `Quick slot_cache_basics;
    Alcotest.test_case "slot cache decode validation" `Quick slot_cache_decode_rejects;
    Alcotest.test_case "attr codec" `Quick attr_roundtrip;
    Alcotest.test_case "result codec" `Quick result_roundtrip;
    Alcotest.test_case "readdir packing prefixes" `Quick entries_prefixes;
    Alcotest.test_case "traffic classification" `Quick traffic_classification;
    Alcotest.test_case "all schemes agree on results" `Quick schemes_agree;
    Alcotest.test_case "dx returns real store bytes" `Quick dx_matches_store_contents;
    Alcotest.test_case "dx miss transfers control" `Quick dx_miss_falls_back_to_control;
    Alcotest.test_case "dx read crosses blocks" `Quick dx_read_crosses_blocks;
    Alcotest.test_case "write push + writeback" `Quick write_push_and_writeback;
    Alcotest.test_case "clerk local cache hits" `Quick clerk_local_cache_hits;
    Alcotest.test_case "concurrent hybrid clients" `Slow concurrent_hybrid_clients;
    Alcotest.test_case "dx readdir multi-chunk" `Quick dx_readdir_multi_chunk;
    Alcotest.test_case "dx readdir chunk ends" `Quick dx_readdir_chunk_ends;
    Alcotest.test_case "dx read of a short slot" `Quick dx_read_short_slot;
    Alcotest.test_case "dx getattr allocation budget" `Quick dx_getattr_budget;
    Alcotest.test_case "dx lookup allocation budget" `Quick dx_lookup_budget;
    Alcotest.test_case "dx read 8K allocation budget" `Quick dx_read_budget;
    Alcotest.test_case "dx readdir 4K allocation budget" `Quick dx_readdir_budget;
    Alcotest.test_case "hy getattr allocation budget" `Quick hy_getattr_budget;
    Alcotest.test_case "hy read 8K allocation budget" `Quick hy_read_budget;
    Alcotest.test_case "hy readdir 1K allocation budget" `Quick hy_readdir_budget;
    Alcotest.test_case "hy write 8K allocation budget" `Quick hy_write_budget;
    Alcotest.test_case "coherence mutual exclusion" `Quick coherence_mutual_exclusion;
    Alcotest.test_case "hy fetch times out" `Quick hy_timeout;
    Alcotest.test_case "delayed revocation" `Quick delayed_revocation;
    Alcotest.test_case "lease expires without revocation" `Quick
      lease_expires_without_revocation;
    Alcotest.test_case "coherence foreign release" `Quick coherence_release_requires_ownership;
    Alcotest.test_case "coherence invariant tracks table" `Quick
      coherence_invariant_tracks_table;
    QCheck_alcotest.to_alcotest store_data_paths;
    QCheck_alcotest.to_alcotest slot_cache_addressing_pure;
    QCheck_alcotest.to_alcotest op_roundtrip;
    QCheck_alcotest.to_alcotest rpc_codec_roundtrip;
    Alcotest.test_case "directory ops and errors through all schemes" `Quick
      directory_ops_and_errors;
    Alcotest.test_case "dx null allocation budget" `Quick dx_null_budget;
    Alcotest.test_case "dx statfs allocation budget" `Quick dx_statfs_budget;
    Alcotest.test_case "dx readlink allocation budget" `Quick dx_readlink_budget;
    Alcotest.test_case "dx read 8K miss allocation budget" `Quick dx_read_miss_budget;
    Alcotest.test_case "set_attr of no file through all schemes" `Quick
      set_attr_of_no_file;
    Alcotest.test_case "warmed file-cache slots match the store" `Quick
      warmed_blocks_match_store;
  ]
