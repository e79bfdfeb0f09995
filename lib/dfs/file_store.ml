(* The server's local file system: the substrate under the distributed
   file service.

   A straightforward in-memory inode store: regular files (8 KB blocks),
   directories, symbolic links; NFS-flavoured attributes.  File handles
   are inode numbers dressed up as 32-byte NFS handles on the wire. *)

exception No_such_file of int
exception Not_a_directory of int
exception Not_a_symlink of int
exception Not_a_file of int
exception Name_exists of string

let block_bytes = 8192

type kind = Regular | Directory | Symlink

type attr = {
  inode : int;
  kind : kind;
  mode : int;
  nlink : int;
  uid : int;
  gid : int;
  size : int;
  atime : int;
  mtime : int;
  ctime : int;
}

type node = {
  mutable attr : attr;
  blocks : (int, bytes) Hashtbl.t; (* block # -> data, Regular *)
  mutable entries : (string * int) list; (* Directory, insertion order *)
  mutable added : (string * int) list; (* Directory, newest first *)
  mutable target : string; (* Symlink *)
}

type t = {
  nodes : (int, node) Hashtbl.t;
  mutable next_inode : int;
  mutable clock : int; (* logical time for {a,m,c}time *)
  root : int;
}

let attr_bytes = 68
(* the NFS fattr size; what GetAttr moves *)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let make_attr t ~inode ~kind ~mode ~size =
  let now = tick t in
  { inode; kind; mode; nlink = 1; uid = 0; gid = 0; size; atime = now;
    mtime = now; ctime = now }

let fresh_node t ~kind ~mode ~size =
  let inode = t.next_inode in
  t.next_inode <- inode + 1;
  let node =
    {
      attr = make_attr t ~inode ~kind ~mode ~size;
      blocks = Hashtbl.create 4;
      entries = [];
      added = [];
      target = "";
    }
  in
  Hashtbl.replace t.nodes inode node;
  (inode, node)

let create () =
  let t = { nodes = Hashtbl.create 256; next_inode = 2; clock = 0; root = 1 } in
  let root =
    {
      attr =
        {
          inode = 1;
          kind = Directory;
          mode = 0o755;
          nlink = 2;
          uid = 0;
          gid = 0;
          size = 0;
          atime = 0;
          mtime = 0;
          ctime = 0;
        };
      blocks = Hashtbl.create 1;
      entries = [];
      added = [];
      target = "";
    }
  in
  Hashtbl.replace t.nodes 1 root;
  t

let root t = t.root

let node t inode =
  match Hashtbl.find_opt t.nodes inode with
  | Some n -> n
  | None -> raise (No_such_file inode)

let getattr t inode = (node t inode).attr

let directory t inode =
  let n = node t inode in
  if n.attr.kind <> Directory then raise (Not_a_directory inode);
  n

(* A directory's entries in insertion order.  An addition goes on the
   head of [added], in O(1), and the additions are moved to the end of
   [entries] here, once, by the next reader. *)
let entries d =
  if d.added <> [] then begin
    d.entries <- d.entries @ List.rev d.added;
    d.added <- []
  end;
  d.entries

let add d entry = d.added <- entry :: d.added

let add_entry t ~dir ~name ~inode =
  let d = directory t dir in
  if List.mem_assoc name d.entries || List.mem_assoc name d.added then
    raise (Name_exists name);
  add d (name, inode);
  d.attr <- { d.attr with size = d.attr.size + 1; mtime = tick t }

let create_file t ~dir ~name () =
  let inode, _ = fresh_node t ~kind:Regular ~mode:0o644 ~size:0 in
  add_entry t ~dir ~name ~inode;
  inode

let mkdir t ~dir ~name () =
  let inode, _ = fresh_node t ~kind:Directory ~mode:0o755 ~size:0 in
  add_entry t ~dir ~name ~inode;
  inode

let symlink t ~dir ~name ~target =
  let inode, n = fresh_node t ~kind:Symlink ~mode:0o777 ~size:(String.length target) in
  n.target <- target;
  add_entry t ~dir ~name ~inode;
  inode

let lookup t ~dir ~name =
  let d = directory t dir in
  match List.assoc_opt name (entries d) with
  | Some inode -> inode
  | None -> raise (No_such_file dir)

exception Not_empty of int

let remove t ~dir ~name =
  let d = directory t dir in
  let inode = lookup t ~dir ~name in
  let n = node t inode in
  if n.attr.kind = Directory then raise (Not_a_file inode);
  d.entries <- List.remove_assoc name (entries d);
  d.attr <- { d.attr with size = d.attr.size - 1; mtime = tick t };
  (* No operation links a file twice: its one name is its last. *)
  Hashtbl.remove t.nodes inode

let rmdir t ~dir ~name =
  let d = directory t dir in
  let inode = lookup t ~dir ~name in
  let n = directory t inode in
  if entries n <> [] then raise (Not_empty inode);
  d.entries <- List.remove_assoc name (entries d);
  d.attr <- { d.attr with size = d.attr.size - 1; mtime = tick t };
  Hashtbl.remove t.nodes inode

let rename t ~from_dir ~from_name ~to_dir ~to_name =
  let src = directory t from_dir in
  let inode = lookup t ~dir:from_dir ~name:from_name in
  let dst = directory t to_dir in
  if List.mem_assoc to_name (entries dst) then raise (Name_exists to_name);
  src.entries <- List.remove_assoc from_name (entries src);
  src.attr <- { src.attr with size = src.attr.size - 1; mtime = tick t };
  add dst (to_name, inode);
  dst.attr <- { dst.attr with size = dst.attr.size + 1; mtime = tick t }

let set_attr t inode ?mode ?size () =
  let n = node t inode in
  (match mode with
  | Some mode -> n.attr <- { n.attr with mode; ctime = tick t }
  | None -> ());
  match size with
  | Some size ->
      if n.attr.kind <> Regular then raise (Not_a_file inode);
      if size < n.attr.size then begin
        (* Truncate: drop whole blocks past the new end and zero the
           tail of the boundary block. *)
        let keep_blocks = (size + block_bytes - 1) / block_bytes in
        Hashtbl.iter
          (fun blk _ -> if blk >= keep_blocks then Hashtbl.remove n.blocks blk)
          (Hashtbl.copy n.blocks);
        let boundary = size mod block_bytes in
        if boundary > 0 then
          Option.iter
            (fun b -> Bytes.fill b boundary (block_bytes - boundary) '\000')
            (Hashtbl.find_opt n.blocks (size / block_bytes))
      end;
      n.attr <- { n.attr with size; mtime = tick t; ctime = t.clock }
  | None -> ()

let readlink t inode =
  let n = node t inode in
  if n.attr.kind <> Symlink then raise (Not_a_symlink inode);
  n.target

let readdir t inode = entries (directory t inode)

let regular t inode =
  let n = node t inode in
  if n.attr.kind <> Regular then raise (Not_a_file inode);
  n

let read_length t inode ~off ~count =
  let n = regular t inode in
  if off < 0 || count < 0 then invalid_arg "File_store.read";
  Stdlib.min count (Stdlib.max 0 (n.attr.size - off))

(* One loop serves every read: each touched block's span is copied
   straight into [out], a hole's is zeroed. *)
let read_into t inode ~off ~count out ~pos =
  let n = regular t inode in
  let rec copy i =
    if i < count then begin
      let abs = off + i in
      let blk = abs / block_bytes and boff = abs mod block_bytes in
      let span = Stdlib.min (count - i) (block_bytes - boff) in
      (match Hashtbl.find_opt n.blocks blk with
      | Some data -> Bytes.blit data boff out (pos + i) span
      | None -> Bytes.fill out (pos + i) span '\000');
      copy (i + span)
    end
  in
  copy 0

let read t inode ~off ~count =
  let count = read_length t inode ~off ~count in
  let out = Bytes.create count in
  read_into t inode ~off ~count out ~pos:0;
  out

(* What a hole and the bytes past the end read as; never written. *)
let zeros = Bytes.make block_bytes '\000'

(* Each span goes from its block straight to the space: a hole's and
   one past the end from [zeros], so a span is cut at the end. *)
let read_to t inode ~off ~count space ~addr =
  let live = read_length t inode ~off ~count in
  let n = regular t inode in
  let rec copy i =
    if i < count then begin
      let abs = off + i in
      let blk = abs / block_bytes and boff = abs mod block_bytes in
      let span = Stdlib.min (count - i) (block_bytes - boff) in
      let span = if i < live then Stdlib.min span (live - i) else span in
      (match Hashtbl.find_opt n.blocks blk with
      | Some data when i < live ->
          Cluster.Address_space.write_from space ~addr:(addr + i) data
            ~pos:boff ~len:span
      | _ ->
          Cluster.Address_space.write_from space ~addr:(addr + i) zeros ~pos:0
            ~len:span);
      copy (i + span)
    end
  in
  copy 0

(* One loop serves every write: [fill pos block boff span] copies the
   source's bytes from [pos] into each touched block's span.  A block
   the write creates and covers whole is not zero-filled first, and is
   entered only once filled. *)
let write_with t inode ~off ~len fill =
  let n = regular t inode in
  if off < 0 then invalid_arg "File_store.write";
  let rec copy pos =
    if pos < len then begin
      let abs = off + pos in
      let blk = abs / block_bytes and boff = abs mod block_bytes in
      let span = Stdlib.min (len - pos) (block_bytes - boff) in
      (match Hashtbl.find_opt n.blocks blk with
      | Some block -> fill pos block boff span
      | None ->
          let block =
            if span = block_bytes then Bytes.create block_bytes
            else Bytes.make block_bytes '\000'
          in
          fill pos block boff span;
          Hashtbl.replace n.blocks blk block);
      copy (pos + span)
    end
  in
  copy 0;
  n.attr <-
    {
      n.attr with
      size = Stdlib.max n.attr.size (off + len);
      mtime = tick t;
    }

let write t inode ~off data =
  write_with t inode ~off ~len:(Bytes.length data) (fun pos block boff span ->
      Bytes.blit data pos block boff span)

let write_from t inode ~off space ~addr ~len =
  write_with t inode ~off ~len (fun pos block boff span ->
      Cluster.Address_space.read_into space ~addr:(addr + pos) ~len:span block
        ~pos:boff)

type statfs = {
  total_blocks : int;
  free_blocks : int;
  files : int;
  block_size : int;
}

let statfs t =
  let used =
    Hashtbl.fold (fun _ n acc -> acc + Hashtbl.length n.blocks) t.nodes 0
  in
  {
    total_blocks = 1 lsl 20;
    free_blocks = (1 lsl 20) - used;
    files = Hashtbl.length t.nodes;
    block_size = block_bytes;
  }

(* Directory entries as READDIR returns them: a packed sequence of
   [inode 4][name len 2][name][pad to 4]. *)
let entry_bytes name = (6 + String.length name + 3) land lnot 3

let entries_length entries =
  List.fold_left (fun acc (name, _) -> acc + entry_bytes name) 0 entries

let put_entry out at (name, inode) =
  let n = String.length name in
  Bytes.set_int32_le out at (Int32.of_int inode);
  Bytes.set_uint16_le out (at + 4) n;
  Bytes.blit_string name 0 out (at + 6) n;
  Bytes.fill out (at + 6 + n) (entry_bytes name - 6 - n) '\000'

(* The first [len] bytes of the packing, at [pos] of [out]: whole
   entries in place, and a cut last one through a scratch entry. *)
let entries_into entries out ~pos ~len =
  let stop = pos + len in
  let rec go at = function
    | ((name, _) as entry) :: rest when at < stop ->
        let size = entry_bytes name in
        if at + size <= stop then begin
          put_entry out at entry;
          go (at + size) rest
        end
        else begin
          let one = Bytes.create size in
          put_entry one 0 entry;
          Bytes.blit one 0 out at (stop - at)
        end
    | _ -> ()
  in
  go pos entries
