(* Per-process virtual address spaces.

   Sparse, demand-zero, paged byte stores.  Remote-memory operations move
   real bytes between these, so higher layers (the name-server registry,
   the file-service caches) genuinely serialize their data structures
   into memory and decode what a remote READ returns.

   Pinning mirrors the paper's application-controlled pinning of virtual
   pages backing exported segments: the simulated kernel refuses remote
   access to unpinned pages of an exported segment. *)

exception Fault of { asid : int; addr : int }

let default_page_size = 4096

type t = {
  asid : int;
  page_size : int;
  pages : (int, bytes) Hashtbl.t;
  pin_counts : (int, int) Hashtbl.t;
}

let create ?(page_size = default_page_size) ~asid () =
  if page_size <= 0 then invalid_arg "Address_space.create: bad page size";
  { asid; page_size; pages = Hashtbl.create 64; pin_counts = Hashtbl.create 16 }

let asid t = t.asid
let page_size t = t.page_size

let check_range t ~addr ~len =
  if addr < 0 || len < 0 then raise (Fault { asid = t.asid; addr })

let page_of t addr = addr / t.page_size

let page t index =
  match Hashtbl.find t.pages index with
  | bytes -> bytes
  | exception Not_found ->
      let bytes = Bytes.make t.page_size '\000' in
      Hashtbl.add t.pages index bytes;
      bytes

let iter_range t ~addr ~len f =
  (* Apply [f page offset_in_page offset_in_buffer span] across pages. *)
  let rec go cursor remaining done_ =
    if remaining > 0 then begin
      let index = page_of t cursor in
      let off = cursor mod t.page_size in
      let span = Stdlib.min remaining (t.page_size - off) in
      f (page t index) off done_ span;
      go (cursor + span) (remaining - span) (done_ + span)
    end
  in
  go addr len 0

let read_into t ~addr ~len dst ~pos =
  check_range t ~addr ~len;
  iter_range t ~addr ~len (fun pg off done_ span ->
      Bytes.blit pg off dst (pos + done_) span)

let read t ~addr ~len =
  check_range t ~addr ~len;
  let out = Bytes.create len in
  read_into t ~addr ~len out ~pos:0;
  out

let write_from t ~addr src ~pos ~len =
  check_range t ~addr ~len;
  iter_range t ~addr ~len (fun pg off done_ span ->
      Bytes.blit src (pos + done_) pg off span)

let write t ~addr data = write_from t ~addr data ~pos:0 ~len:(Bytes.length data)

let read_word t ~addr =
  let b = read t ~addr ~len:4 in
  Bytes.get_int32_le b 0

let write_word t ~addr v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 v;
  write t ~addr b

let cas_word t ~addr ~old_value ~new_value =
  let current = read_word t ~addr in
  if Int32.equal current old_value then begin
    write_word t ~addr new_value;
    true
  end
  else false

let pin t ~addr ~len =
  check_range t ~addr ~len;
  let first = page_of t addr and last = page_of t (addr + Stdlib.max 0 (len - 1)) in
  for index = first to last do
    let n = Option.value ~default:0 (Hashtbl.find_opt t.pin_counts index) in
    Hashtbl.replace t.pin_counts index (n + 1)
  done;
  last - first + 1

let unpin t ~addr ~len =
  check_range t ~addr ~len;
  let first = page_of t addr and last = page_of t (addr + Stdlib.max 0 (len - 1)) in
  for index = first to last do
    match Hashtbl.find_opt t.pin_counts index with
    | None | Some 0 -> invalid_arg "Address_space.unpin: page not pinned"
    | Some 1 -> Hashtbl.remove t.pin_counts index
    | Some n -> Hashtbl.replace t.pin_counts index (n - 1)
  done

let is_pinned t ~addr ~len =
  check_range t ~addr ~len;
  let first = page_of t addr and last = page_of t (addr + Stdlib.max 0 (len - 1)) in
  let rec check index =
    if index > last then true
    else
      match Hashtbl.find_opt t.pin_counts index with
      | Some n when n > 0 -> check (index + 1)
      | _ -> false
  in
  check first

let pinned_pages t =
  Hashtbl.fold (fun _ n acc -> if n > 0 then acc + 1 else acc) t.pin_counts 0

let resident_pages t = Hashtbl.length t.pages
