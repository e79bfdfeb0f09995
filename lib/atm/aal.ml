(* ATM adaptation-layer arithmetic.

   An ATM cell carries 53 bytes on the wire: a 5-byte header and a 48-byte
   payload.  Frames no larger than one payload travel in a single cell (the
   remote-memory layer formats its single-cell requests this way, with the
   8-byte request header inside the payload leaving 40 data bytes, exactly
   as the paper reports).  Larger frames are segmented AAL5-style with an
   8-byte trailer in the final cell. *)

let cell_payload_bytes = 48
let cell_wire_bytes = 53
let aal5_trailer_bytes = 8

let cells_of_len len =
  if len < 0 then invalid_arg "Aal.cells_of_len: negative length";
  if len = 0 then 1
  else if len <= cell_payload_bytes then 1
  else
    let padded = len + aal5_trailer_bytes in
    (padded + cell_payload_bytes - 1) / cell_payload_bytes

let wire_bytes_of_len len = cells_of_len len * cell_wire_bytes

let words_of_len len = (len + 3) / 4
(* 32-bit words touched by programmed I/O to move [len] payload bytes. *)

(* The AAL5 trailer carries a CRC-32 over the frame payload; we model it
   with a multiply-xorshift digest that consumes the payload as 32-bit
   little-endian words into the full 63-bit OCaml int.  Each 16-byte
   block feeds its four words to four independent lanes, one each, so
   the four multiplies of a block overlap; the lanes are then folded
   together with the same step (a frame under 16 bytes has no block
   and pays for no lanes), and the words past the last block and the
   last 0-3 bytes (one short word) follow one at a time.  A block is
   read as two 64-bit halves, and each half's high word is taken with a
   logical shift so bit 63 is kept.  For a fixed word every step -- xor
   the word in, multiply by an odd constant, xor-shift -- is a bijection
   of the state, and for a fixed state it is injective in the word, so
   changing any one word, and in particular flipping any single bit,
   changes its lane and hence the digest.  Verification is free in
   simulated time (the real interface checks it in hardware as cells
   drain). *)
let mix h w =
  let h = (h lxor w) * 0x100000001B3 in
  h lxor (h lsr 29)

let checksum payload =
  let len = Bytes.length payload in
  let blocks = len / 16 in
  let h = ref (0x811C9DC5 lxor len) in
  if blocks > 0 then begin
    let l0 = ref !h and l1 = ref (!h + 1) in
    let l2 = ref (!h + 2) and l3 = ref (!h + 3) in
    for i = 0 to blocks - 1 do
      let a = Bytes.get_int64_le payload (16 * i) in
      let b = Bytes.get_int64_le payload ((16 * i) + 8) in
      l0 := mix !l0 (Int64.to_int a land 0xFFFFFFFF);
      l1 := mix !l1 (Int64.to_int (Int64.shift_right_logical a 32));
      l2 := mix !l2 (Int64.to_int b land 0xFFFFFFFF);
      l3 := mix !l3 (Int64.to_int (Int64.shift_right_logical b 32))
    done;
    h := mix (mix (mix !l0 !l1) !l2) !l3
  end;
  let words = len / 4 in
  for i = 4 * blocks to words - 1 do
    let w = Int32.to_int (Bytes.get_int32_le payload (4 * i)) in
    h := mix !h (w land 0xFFFFFFFF)
  done;
  let tail = ref 0 in
  for i = len - 1 downto 4 * words do
    tail := (!tail lsl 8) lor Char.code (Bytes.get payload i)
  done;
  if len > 4 * words then mix !h !tail else !h
