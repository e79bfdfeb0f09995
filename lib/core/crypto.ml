(* Link encryption for untrusted environments (§3.5).

   The paper notes that with remote memory "each read and write has to
   be encrypted and decrypted", that software emulation "will not
   provide adequate performance", and that AN1-style controllers can do
   it in hardware as data is transmitted or received.

   We model exactly that trade-off: a per-word cost charged on the data
   path (zero-ish for hardware, large for software), and an involutive
   key-stream transform applied to the bytes so that a receiver without
   the key — or with secure mode off — really does see ciphertext. The
   transform is a stand-in for DES-class hardware; the cost model, not
   the cipher, is the load-bearing part. *)

type t = { key : int64; per_word_cost : Sim.Time.t }

let make ~key ~per_word_cost = { key = Int64.of_int key; per_word_cost }

(* A splitmix-style keystream; XOR makes the transform an involution. *)
let keystream_byte key i =
  let z = Int64.add key (Int64.mul (Int64.of_int (i / 8 + 1)) 0x9E3779B97F4A7C15L) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  Int64.to_int (Int64.shift_right_logical z ((i mod 8) * 8)) land 0xFF

let transform t ?(pos = 0) ?len data =
  let len = match len with Some n -> n | None -> Bytes.length data - pos in
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set out i
      (Char.chr (Char.code (Bytes.get data (pos + i)) lxor keystream_byte t.key i))
  done;
  out

let cost t ~bytes =
  Sim.Time.mul t.per_word_cost (Atm.Aal.words_of_len bytes)

(* The AN1 controller encrypts as data moves through: almost free. *)
let hardware_an1 = make ~key:0x5EC2E7 ~per_word_cost:(Sim.Time.of_us_float 0.05)

(* A software DES-class implementation on a ~25 MHz MIPS: dominant. *)
let software_des = make ~key:0x5EC2E7 ~per_word_cost:(Sim.Time.of_us_float 1.6)
