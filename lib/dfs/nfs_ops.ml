(* The file-service operation vocabulary (the NFS-like interface of
   Table 1a), with wire encodings and the control/data traffic
   classification behind Table 1b.

   The classification follows the paper's definition: *data* is what a
   direct protected memory-to-memory primitive would have to move
   (results flowing into the requester's memory; file contents flowing
   to the server); everything else — file handles, transaction ids,
   offsets, counts, names used only to locate data, marshaling padding —
   is *control*, the overhead imposed by the RPC style. *)

type op =
  | Null
  | Get_attr of { fh : int }
  | Lookup of { dir : int; name : string }
  | Read_link of { fh : int }
  | Read of { fh : int; off : int; count : int }
  | Read_dir of { fh : int; count : int }
  | Statfs
  | Write of { fh : int; off : int; data : bytes }
  (* Namespace and attribute mutations: the activity behind Table 1a's
     "Other" row. *)
  | Set_attr of { fh : int; mode : int; size : int }
  | Create of { dir : int; name : string }
  | Remove of { dir : int; name : string }
  | Rename of { from_dir : int; from_name : string; to_dir : int; to_name : string }
  | Mkdir of { dir : int; name : string }
  | Rmdir of { dir : int; name : string }

type result =
  | R_null
  | R_attr of File_store.attr
  | R_lookup of { fh : int; attr : File_store.attr }
  | R_link of string
  | R_data of bytes
  | R_entries of bytes
  | R_statfs of File_store.statfs
  | R_write of File_store.attr
  | R_error of int

(* The paper's activity names, verbatim (Table 1a row labels). *)
let label = function
  | Get_attr _ -> "Get File Attribute"
  | Lookup _ -> "Lookup File Name"
  | Read _ -> "Read File Data"
  | Null -> "Null Ping Call"
  | Read_link _ -> "Read Symbolic Link"
  | Read_dir _ -> "Read Directory Contents"
  | Statfs -> "Read File System Stats."
  | Write _ -> "Write File Data"
  | Set_attr _ | Create _ | Remove _ | Rename _ | Mkdir _ | Rmdir _ -> "Other"

let all_labels =
  [
    "Get File Attribute";
    "Lookup File Name";
    "Read File Data";
    "Null Ping Call";
    "Read Symbolic Link";
    "Read Directory Contents";
    "Read File System Stats.";
    "Write File Data";
    "Other";
  ]

(* ------------------------------------------------------------------ *)
(* Attribute encoding: the 68-byte NFS fattr.                          *)

let kind_to_int = function
  | File_store.Regular -> 1
  | File_store.Directory -> 2
  | File_store.Symlink -> 5

let kind_of_int = function
  | 1 -> File_store.Regular
  | 2 -> File_store.Directory
  | 5 -> File_store.Symlink
  | k -> invalid_arg (Printf.sprintf "Nfs_ops.kind_of_int: %d" k)

(* The fattr's seventeen words onto a writer. *)
let put_attr w (a : File_store.attr) =
  let put = Atm.Codec.put_u32 w in
  put (kind_to_int a.kind);
  put a.mode;
  put a.nlink;
  put a.uid;
  put a.gid;
  put a.size;
  put File_store.block_bytes;
  put 0 (* rdev *);
  put ((a.size + File_store.block_bytes - 1) / File_store.block_bytes);
  put 0 (* fsid *);
  put a.inode;
  put a.atime;
  put 0;
  put a.mtime;
  put 0;
  put a.ctime;
  put 0

let attr_into a b ~pos = put_attr (Atm.Codec.writer_at b ~pos) a

let encode_attr a =
  let b = Bytes.create File_store.attr_bytes in
  attr_into a b ~pos:0;
  b

(* An fattr from its words, the one at byte [i] read as
   [get env (base + i)]: [get] is a top-level reader, so a decode
   allocates only the record. *)
let attr_of get env base =
  {
    File_store.inode = get env (base + 40);
    kind = kind_of_int (get env base);
    mode = get env (base + 4);
    nlink = get env (base + 8);
    uid = get env (base + 12);
    gid = get env (base + 16);
    size = get env (base + 20);
    atime = get env (base + 44);
    mtime = get env (base + 52);
    ctime = get env (base + 60);
  }

let bytes_word b off = Int32.to_int (Bytes.get_int32_le b off)
let space_word space addr = Cluster.Address_space.read_word space ~addr

let decode_attr b = attr_of bytes_word b 0
let attr_at space ~addr = attr_of space_word space addr

(* ------------------------------------------------------------------ *)
(* Traffic classification (Table 1b).                                  *)

let fh_bytes = 32
(* NFS file handles are opaque 32-byte values. *)

let xid_bytes = 4

type traffic = { control : int; data : int }

let add a b = { control = a.control + b.control; data = a.data + b.data }

let request_traffic op =
  let base = { control = xid_bytes; data = 0 } in
  let extra =
    match op with
    | Null -> { control = 0; data = 0 }
    | Get_attr _ -> { control = fh_bytes; data = 0 }
    | Lookup { name; _ } ->
        (* The name locates data; pure data transfer would not send it
           (the clerk hashes it locally), so it is control traffic. *)
        { control = fh_bytes + 4 + String.length name; data = 0 }
    | Read_link _ -> { control = fh_bytes; data = 0 }
    | Read _ -> { control = fh_bytes + 8; data = 0 }
    | Read_dir _ -> { control = fh_bytes + 8; data = 0 }
    | Statfs -> { control = fh_bytes; data = 0 }
    | Write { data; _ } ->
        { control = fh_bytes + 8; data = Bytes.length data }
    | Set_attr _ ->
        (* The new attribute values are data a direct primitive would
           still have to move. *)
        { control = fh_bytes; data = 8 }
    | Create { name; _ } | Remove { name; _ } | Mkdir { name; _ }
    | Rmdir { name; _ } ->
        { control = fh_bytes + 4 + String.length name; data = 0 }
    | Rename { from_name; to_name; _ } ->
        {
          control =
            (2 * fh_bytes) + 8 + String.length from_name + String.length to_name;
          data = 0;
        }
  in
  add base extra

let reply_traffic result =
  let base = { control = xid_bytes + 4 (* status *); data = 0 } in
  let extra =
    match result with
    | R_null -> { control = 0; data = 0 }
    | R_attr _ -> { control = 0; data = File_store.attr_bytes }
    | R_lookup _ ->
        (* The new handle plus attributes are the metadata the client
           asked for. *)
        { control = 0; data = fh_bytes + File_store.attr_bytes }
    | R_link target -> { control = 4; data = String.length target }
    | R_data data ->
        { control = 4; data = File_store.attr_bytes + Bytes.length data }
    | R_entries entries -> { control = 4; data = Bytes.length entries }
    | R_statfs _ -> { control = 0; data = 20 }
    | R_write _ -> { control = 0; data = File_store.attr_bytes }
    | R_error _ -> { control = 0; data = 0 }
  in
  add base extra

(* ------------------------------------------------------------------ *)
(* Compact binary encoding, used for Hybrid-1 request segments and for
   the RPC baseline's bodies.                                          *)

let op_code = function
  | Null -> 0
  | Get_attr _ -> 1
  | Lookup _ -> 2
  | Read_link _ -> 3
  | Read _ -> 4
  | Read_dir _ -> 5
  | Statfs -> 6
  | Write _ -> 7
  | Set_attr _ -> 8
  | Create _ -> 9
  | Remove _ -> 10
  | Rename _ -> 11
  | Mkdir _ -> 12
  | Rmdir _ -> 13

(* A Hybrid-1 request, [reply offset][op], the op encoded in place from
   byte 4 of the caller's request buffer; {!Rmem.Hybrid.call} fills
   word 0. *)
let request_into op b =
  let w = Atm.Codec.writer_at b ~pos:4 in
  Atm.Codec.put_u8 w (op_code op);
  (match op with
  | Null | Statfs -> ()
  | Get_attr { fh } | Read_link { fh } -> Atm.Codec.put_u32 w fh
  | Lookup { dir; name } ->
      Atm.Codec.put_u32 w dir;
      Atm.Codec.put_string w name
  | Read { fh; off; count } ->
      Atm.Codec.put_u32 w fh;
      Atm.Codec.put_u32 w off;
      Atm.Codec.put_u32 w count
  | Read_dir { fh; count } ->
      Atm.Codec.put_u32 w fh;
      Atm.Codec.put_u32 w count
  | Write { fh; off; data } ->
      Atm.Codec.put_u32 w fh;
      Atm.Codec.put_u32 w off;
      Atm.Codec.put_u32 w (Bytes.length data);
      Atm.Codec.put_bytes w data
  | Set_attr { fh; mode; size } ->
      Atm.Codec.put_u32 w fh;
      Atm.Codec.put_u32 w mode;
      Atm.Codec.put_u32 w size
  | Create { dir; name } | Remove { dir; name } | Mkdir { dir; name }
  | Rmdir { dir; name } ->
      Atm.Codec.put_u32 w dir;
      Atm.Codec.put_string w name
  | Rename { from_dir; from_name; to_dir; to_name } ->
      Atm.Codec.put_u32 w from_dir;
      Atm.Codec.put_string w from_name;
      Atm.Codec.put_u32 w to_dir;
      Atm.Codec.put_string w to_name);
  Atm.Codec.length w

type request =
  | Op of op
  | Write_at of { fh : int; off : int; len : int; data : int }

let u32_at space addr =
  Cluster.Address_space.read_word space ~addr land 0xFFFFFFFF

(* A string behind its u16 length at [addr]. *)
let name_at space addr =
  Bytes.unsafe_to_string
    (Cluster.Address_space.read space ~addr:(addr + 2)
       ~len:(Cluster.Address_space.read_word space ~addr land 0xFFFF))

(* The op encoded at [addr], decoded where it landed: every field read
   as a word, a name copied once into its string, and a Write's data
   left where it lies. *)
let request_at space ~addr =
  let a = addr + 1 and b = addr + 5 and c = addr + 9 in
  match Cluster.Address_space.read_word space ~addr land 0xFF with
  | 0 -> Op Null
  | 1 -> Op (Get_attr { fh = u32_at space a })
  | 2 -> Op (Lookup { dir = u32_at space a; name = name_at space b })
  | 3 -> Op (Read_link { fh = u32_at space a })
  | 4 ->
      Op
        (Read { fh = u32_at space a; off = u32_at space b; count = u32_at space c })
  | 5 -> Op (Read_dir { fh = u32_at space a; count = u32_at space b })
  | 6 -> Op Statfs
  | 7 ->
      Write_at
        { fh = u32_at space a; off = u32_at space b; len = u32_at space c;
          data = addr + 13 }
  | 8 ->
      Op
        (Set_attr
           { fh = u32_at space a; mode = u32_at space b; size = u32_at space c })
  | 9 -> Op (Create { dir = u32_at space a; name = name_at space b })
  | 10 -> Op (Remove { dir = u32_at space a; name = name_at space b })
  | 11 ->
      let to_dir =
        b + 2 + (Cluster.Address_space.read_word space ~addr:b land 0xFFFF)
      in
      Op
        (Rename
           {
             from_dir = u32_at space a;
             from_name = name_at space b;
             to_dir = u32_at space to_dir;
             to_name = name_at space (to_dir + 4);
           })
  | 12 -> Op (Mkdir { dir = u32_at space a; name = name_at space b })
  | 13 -> Op (Rmdir { dir = u32_at space a; name = name_at space b })
  | code -> invalid_arg (Printf.sprintf "Nfs_ops.request_at: %d" code)

let result_code = function
  | R_null -> 0
  | R_attr _ -> 1
  | R_lookup _ -> 2
  | R_link _ -> 3
  | R_data _ -> 4
  | R_entries _ -> 5
  | R_statfs _ -> 6
  | R_write _ -> 7
  | R_error _ -> 8

(* A result encoded in place at [pos] of the caller's buffer.  A Read's
   or a ReadDir's reply is built by its server with {!bulk_header}. *)
let result_into result b ~pos =
  let w = Atm.Codec.writer_at b ~pos in
  Atm.Codec.put_u8 w (result_code result);
  (match result with
  | R_null -> ()
  | R_attr a | R_write a -> put_attr w a
  | R_lookup { fh; attr } ->
      Atm.Codec.put_u32 w fh;
      put_attr w attr
  | R_link target -> Atm.Codec.put_string w target
  | R_data data | R_entries data ->
      Atm.Codec.put_u32 w (Bytes.length data);
      Atm.Codec.put_bytes w data
  | R_statfs s ->
      Atm.Codec.put_u32 w s.File_store.total_blocks;
      Atm.Codec.put_u32 w s.File_store.free_blocks;
      Atm.Codec.put_u32 w s.File_store.files;
      Atm.Codec.put_u32 w s.File_store.block_size
  | R_error code -> Atm.Codec.put_u32 w code);
  Atm.Codec.length w - pos

let bulk_pos = 5

let bulk_header ~entries len b ~pos =
  Bytes.set_uint8 b pos (if entries then 5 (* R_entries *) else 4 (* R_data *));
  Bytes.set_int32_le b (pos + 1) (Int32.of_int len);
  bulk_pos + len

(* The result encoded at [addr], decoded where it lies: a Read's or a
   ReadDir's bytes copied once, into the result's own, and every other
   field read as a word. *)
let result_at space ~addr =
  let word off = Cluster.Address_space.read_word space ~addr:(addr + off) in
  let u32 off = word off land 0xFFFFFFFF in
  let bytes ~off len =
    let b = Bytes.create len in
    Cluster.Address_space.read_into space ~addr:(addr + off) ~len b ~pos:0;
    b
  in
  match word 0 land 0xFF with
  | 0 -> R_null
  | 1 -> R_attr (attr_at space ~addr:(addr + 1))
  | 2 -> R_lookup { fh = u32 1; attr = attr_at space ~addr:(addr + 5) }
  | 3 -> R_link (Bytes.unsafe_to_string (bytes ~off:3 (word 1 land 0xFFFF)))
  | 4 -> R_data (bytes ~off:bulk_pos (u32 1))
  | 5 -> R_entries (bytes ~off:bulk_pos (u32 1))
  | 6 ->
      R_statfs
        {
          File_store.total_blocks = u32 1;
          free_blocks = u32 5;
          files = u32 9;
          block_size = u32 13;
        }
  | 7 -> R_write (attr_at space ~addr:(addr + 1))
  | 8 -> R_error (u32 1)
  | c -> invalid_arg (Printf.sprintf "Nfs_ops.result_at: %d" c)

(* ------------------------------------------------------------------ *)
(* Server procedure cost of an operation (the warm-cache Ultrix NFS
   measurements the paper uses for the Hybrid-1 comparison).           *)

let write_cost (c : Cluster.Costs.t) len =
  Cluster.Costs.proc_cost c ~base:c.proc_write_base ~per_kb:c.proc_write_per_kb
    ~bytes:len

let procedure_cost (c : Cluster.Costs.t) op =
  match op with
  | Null -> c.proc_null
  | Get_attr _ -> c.proc_getattr
  | Lookup _ -> c.proc_lookup
  | Read_link _ -> c.proc_readlink
  | Statfs -> c.proc_statfs
  (* Namespace mutations cost about what a lookup plus an attribute
     update does on the Ultrix server. *)
  | Set_attr _ -> c.proc_getattr
  | Create _ | Remove _ | Mkdir _ | Rmdir _ -> c.proc_lookup
  | Rename _ -> Sim.Time.add c.proc_lookup c.proc_lookup
  | Read { count; _ } ->
      Cluster.Costs.proc_cost c ~base:c.proc_read_base ~per_kb:c.proc_read_per_kb
        ~bytes:count
  | Read_dir { count; _ } ->
      Cluster.Costs.proc_cost c ~base:c.proc_readdir_base
        ~per_kb:c.proc_readdir_per_kb ~bytes:count
  | Write { data; _ } -> write_cost c (Bytes.length data)
