(* Network frames: the unit handed to and received from a NIC.

   A frame's payload is segmented into ATM cells for transmission; see
   {!Aal} for the cell arithmetic.

   [ctx] models a trace id riding in a reserved header field: it travels
   with the frame but contributes nothing to [length], so attaching a
   tracer cannot perturb wire timing.

   [checksum] models the AAL5 trailer CRC: computed over the payload
   when the frame is formatted for transmission and carried unchanged.
   A fault plane that corrupts the payload in flight leaves the stored
   checksum stale, so the receiving NIC detects the damage and drops the
   frame as a receive error instead of delivering bad data. *)

type t = {
  src : Addr.t;
  dst : Addr.t;
  payload : bytes;
  ctx : Obs.Ctx.t option;
  checksum : int;
}

let make ?ctx ~src ~dst payload =
  { src; dst; payload; ctx; checksum = Aal.checksum payload }

let src t = t.src
let dst t = t.dst
let payload t = t.payload
let ctx t = t.ctx
let length t = Bytes.length t.payload

let intact t = t.checksum = Aal.checksum t.payload

(* In-flight corruption: flip one payload byte (chosen by the fault
   plane) without refreshing the stored checksum. An empty payload has
   no byte to flip, so the checksum itself is damaged instead. *)
let corrupted ~byte t =
  if Bytes.length t.payload = 0 then { t with checksum = t.checksum lxor 1 }
  else begin
    let payload = Bytes.copy t.payload in
    let i = byte mod Bytes.length payload in
    Bytes.set payload i (Char.chr (Char.code (Bytes.get payload i) lxor 0xFF));
    { t with payload }
  end
