(* Per-process virtual address spaces.

   Sparse, demand-zero, paged byte stores: a page materializes on its
   first touch, zero-filled, except when that touch is a write covering
   the whole page, whose bytes are then all the write's.  Remote-memory
   operations move real bytes between these, so higher layers (the
   name-server registry, the file-service caches) genuinely serialize
   their data structures into memory and decode what a remote READ
   returns.

   Pinning mirrors the paper's application-controlled pinning of virtual
   pages backing exported segments: the simulated kernel refuses remote
   access to unpinned pages of an exported segment. *)

exception Fault of { asid : int; addr : int }

let page_bytes = 4096

type t = {
  asid : int;
  pages : bytes Sim.Int_table.t;
  pin_counts : int Sim.Int_table.t;
}

let create ~asid () =
  {
    asid;
    pages = Sim.Int_table.create 16;
    pin_counts = Sim.Int_table.create 8;
  }

let asid t = t.asid
let page_size _ = page_bytes

let check_range t ~addr ~len =
  if addr < 0 || len < 0 then raise (Fault { asid = t.asid; addr })

let page_of addr = addr / page_bytes

let page t index =
  match Sim.Int_table.find t.pages index with
  | bytes -> bytes
  | exception Not_found ->
      let bytes = Bytes.make page_bytes '\000' in
      Sim.Int_table.replace t.pages index bytes;
      bytes

let blit_page pg ~off buf ~at ~span ~to_buf =
  if to_buf then Bytes.blit pg off buf at span else Bytes.blit buf at pg off span

(* A page's first touch: a write that covers it whole fills it from
   [buf] alone, with no zero fill first, and enters it only once filled;
   any other touch enters a zero page. *)
let first_touch t index ~off buf ~at ~span ~to_buf =
  if (not to_buf) && span = page_bytes then begin
    let pg = Bytes.create page_bytes in
    Bytes.blit buf at pg 0 page_bytes;
    Sim.Int_table.replace t.pages index pg
  end
  else blit_page (page t index) ~off buf ~at ~span ~to_buf

(* Copy [remaining] bytes between the pages from address [cursor] and
   [buf] from [at]: out of the pages when [to_buf], into them otherwise.
   A top-level loop rather than an iterator taking a closure: a copy is
   on every frame's path, and the closure would be allocated per call. *)
let rec copy_pages t ~cursor ~remaining buf ~at ~to_buf =
  if remaining > 0 then begin
    let off = cursor mod page_bytes in
    let span = Int.min remaining (page_bytes - off) in
    let index = page_of cursor in
    (match Sim.Int_table.find t.pages index with
    | pg -> blit_page pg ~off buf ~at ~span ~to_buf
    | exception Not_found -> first_touch t index ~off buf ~at ~span ~to_buf);
    copy_pages t ~cursor:(cursor + span) ~remaining:(remaining - span) buf
      ~at:(at + span) ~to_buf
  end

let read_into t ~addr ~len dst ~pos =
  check_range t ~addr ~len;
  copy_pages t ~cursor:addr ~remaining:len dst ~at:pos ~to_buf:true

let read t ~addr ~len =
  check_range t ~addr ~len;
  let out = Bytes.create len in
  read_into t ~addr ~len out ~pos:0;
  out

let write_from t ~addr src ~pos ~len =
  check_range t ~addr ~len;
  copy_pages t ~cursor:addr ~remaining:len src ~at:pos ~to_buf:false

let write t ~addr data = write_from t ~addr data ~pos:0 ~len:(Bytes.length data)

(* Words are little-endian 32-bit values, passed as an [int] so that
   none is boxed across the call: a read returns the word sign-extended
   (what [Int32.to_int] of it would give), a write stores the low 32 bits
   of its argument, and a compare-and-swap compares the low 32 bits.
   Inside the module a word is its unsigned 32 bits.  One inside a page
   is read or written in place; one straddling a page boundary goes a
   byte at a time.  Neither allocates a staging buffer. *)
let byte_at t addr = Bytes.get_uint8 (page t (page_of addr)) (addr mod page_bytes)

let get_bits t addr =
  let off = addr mod page_bytes in
  if off + 4 <= page_bytes then
    Int32.to_int (Bytes.get_int32_le (page t (page_of addr)) off) land 0xFFFFFFFF
  else
    byte_at t addr
    lor (byte_at t (addr + 1) lsl 8)
    lor (byte_at t (addr + 2) lsl 16)
    lor (byte_at t (addr + 3) lsl 24)

let set_bits t addr bits =
  let off = addr mod page_bytes in
  if off + 4 <= page_bytes then
    Bytes.set_int32_le (page t (page_of addr)) off (Int32.of_int bits)
  else
    for i = 0 to 3 do
      let a = addr + i in
      Bytes.set_uint8 (page t (page_of a)) (a mod page_bytes)
        ((bits lsr (8 * i)) land 0xFF)
    done

let read_word t ~addr =
  check_range t ~addr ~len:4;
  (get_bits t addr lxor 0x8000_0000) - 0x8000_0000

let write_word t ~addr v =
  check_range t ~addr ~len:4;
  set_bits t addr v

let cas_word t ~addr ~old_value ~new_value =
  check_range t ~addr ~len:4;
  if get_bits t addr = old_value land 0xFFFFFFFF then begin
    set_bits t addr new_value;
    true
  end
  else false

let pin t ~addr ~len =
  check_range t ~addr ~len;
  let first = page_of addr and last = page_of (addr + Int.max 0 (len - 1)) in
  for index = first to last do
    let n = Option.value ~default:0 (Sim.Int_table.find_opt t.pin_counts index) in
    Sim.Int_table.replace t.pin_counts index (n + 1)
  done;
  last - first + 1

let unpin t ~addr ~len =
  check_range t ~addr ~len;
  let first = page_of addr and last = page_of (addr + Int.max 0 (len - 1)) in
  for index = first to last do
    match Sim.Int_table.find_opt t.pin_counts index with
    | None | Some 0 -> invalid_arg "Address_space.unpin: page not pinned"
    | Some 1 -> Sim.Int_table.remove t.pin_counts index
    | Some n -> Sim.Int_table.replace t.pin_counts index (n - 1)
  done

(* Pages [index] to [last] all pinned; allocation-free, as every serve asks. *)
let rec pinned_from t index last =
  index > last
  ||
  match Sim.Int_table.find t.pin_counts index with
  | n -> n > 0 && pinned_from t (index + 1) last
  | exception Not_found -> false

let is_pinned t ~addr ~len =
  check_range t ~addr ~len;
  pinned_from t (page_of addr) (page_of (addr + Int.max 0 (len - 1)))

let resident_pages t = Sim.Int_table.length t.pages
