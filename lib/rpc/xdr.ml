(* XDR-style marshaling with control/data byte accounting.

   Everything is 4-byte aligned like ONC RPC's XDR.  Each field is
   classified as protocol machinery ([`Control]) or useful payload
   ([`Data]); the per-class byte totals are what Table 1b's
   control-versus-data traffic breakdown is computed from.  Marshaling
   overhead (alignment padding, length words) always counts as control,
   matching the paper's accounting. *)

type cls = [ `Control | `Data ]

type t = {
  w : Atm.Codec.writer;
  mutable control : int;
  mutable data : int;
}

let create () = { w = Atm.Codec.writer (); control = 0; data = 0 }

let account t cls n =
  match cls with
  | `Control -> t.control <- t.control + n
  | `Data -> t.data <- t.data + n

let int ?(cls = `Control) t v =
  Atm.Codec.put_u32 t.w (v land 0xFFFFFFFF);
  account t cls 4

let bool t v = int t (if v then 1 else 0)

let padding_of n = (4 - (n land 3)) land 3

let opaque ?(cls = `Data) t b =
  let n = Bytes.length b in
  (* Length word and alignment padding are marshaling overhead. *)
  Atm.Codec.put_u32 t.w n;
  account t `Control 4;
  Atm.Codec.put_bytes t.w b;
  account t cls n;
  let pad = padding_of n in
  Atm.Codec.put_padding t.w pad;
  account t `Control pad

let string ?(cls = `Control) t s = opaque ~cls t (Bytes.of_string s)

let fixed_opaque ?(cls = `Control) t b =
  let n = Bytes.length b in
  Atm.Codec.put_bytes t.w b;
  account t cls n;
  let pad = padding_of n in
  Atm.Codec.put_padding t.w pad;
  account t `Control pad

let control_bytes t = t.control
let data_bytes t = t.data
let length t = Atm.Codec.length t.w
let contents t = Atm.Codec.contents t.w

(* Unmarshaling. *)

type reader = Atm.Codec.reader

let reader b = Atm.Codec.reader b

let read_int r = Atm.Codec.get_u32 r
let read_bool r = Atm.Codec.get_u32 r <> 0

let read_opaque r =
  let n = Atm.Codec.get_u32 r in
  let b = Atm.Codec.get_bytes r n in
  Atm.Codec.skip r (padding_of n);
  b

let read_string r = Bytes.to_string (read_opaque r)

let read_fixed_opaque r n =
  let b = Atm.Codec.get_bytes r n in
  Atm.Codec.skip r (padding_of n);
  b
