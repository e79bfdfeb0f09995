(* RPC message transport over the cluster network.

   Frames claim tag 0x20.  A call frame carries a 72-byte header
   (ONC-RPC-sized: xid, message type, program, version, procedure, and
   UNIX-flavor credentials/verifier); a reply carries a 24-byte header.
   Header bytes are pure control traffic; body bytes keep the
   control/data classification their {!Xdr} marshaller recorded.

   Both handlers run in the node's receive-dispatcher process (a
   process-level tag, [Cluster.Node.set_handler]). *)

let frame_tag = 0x20
let call_header_bytes = 72
let reply_header_bytes = 24

type service = {
  deliver : src:Atm.Addr.t -> xid:int -> proc:int -> args:bytes -> unit;
}

type t = {
  node : Cluster.Node.t;
  mutable next_xid : int;
  calls : (int, bytes Sim.Ivar.t) Hashtbl.t; (* by xid *)
  programs : (int, service) Hashtbl.t;
}

let kind_call = 0
let kind_reply = 1

(* A reply body is prefixed with its (control, data) byte split: 8
   bytes that every reply frame carries ({!reply_frame_bytes}). *)
let reply_split_bytes = 8

let handle_frame t ~src payload =
  let r = Atm.Codec.reader payload in
  let (_ : int) = Atm.Codec.get_u8 r in
  let kind = Atm.Codec.get_u8 r in
  let xid = Atm.Codec.get_u32 r in
  if kind = kind_call then begin
    let prog = Atm.Codec.get_u16 r in
    let proc = Atm.Codec.get_u16 r in
    Atm.Codec.skip r (call_header_bytes - Atm.Codec.position r);
    let args = Atm.Codec.rest r in
    match Hashtbl.find_opt t.programs prog with
    | Some service -> service.deliver ~src ~xid ~proc ~args
    | None -> failwith (Printf.sprintf "Rpc: no program %d registered" prog)
  end
  else begin
    Atm.Codec.skip r (reply_header_bytes - Atm.Codec.position r);
    match Hashtbl.find_opt t.calls xid with
    | None -> () (* late reply; call abandoned *)
    | Some reply ->
        Hashtbl.remove t.calls xid;
        Atm.Codec.skip r reply_split_bytes;
        Sim.Ivar.fill reply (Atm.Codec.rest r)
  end

let attach node =
  let t =
    {
      node;
      next_xid = 1;
      calls = Hashtbl.create 32;
      programs = Hashtbl.create 4;
    }
  in
  Cluster.Node.set_handler node ~tag:frame_tag (fun ~src payload ->
      handle_frame t ~src payload);
  t

let encode_header ~kind ~xid ~prog ~proc ~header_bytes =
  let w = Atm.Codec.writer ~capacity:header_bytes () in
  Atm.Codec.put_u8 w frame_tag;
  Atm.Codec.put_u8 w kind;
  Atm.Codec.put_u32 w xid;
  Atm.Codec.put_u16 w prog;
  Atm.Codec.put_u16 w proc;
  Atm.Codec.put_padding w (header_bytes - Atm.Codec.length w);
  w

let frame_of ~kind ~xid ~prog ~proc ~header_bytes body =
  let w = encode_header ~kind ~xid ~prog ~proc ~header_bytes in
  Atm.Codec.put_bytes w body;
  Atm.Codec.contents w

let alloc_xid t =
  let rec probe candidate =
    let candidate = if candidate = 0 then 1 else candidate land 0xFFFFFFFF in
    if Hashtbl.mem t.calls candidate then probe (candidate + 1) else candidate
  in
  let xid = probe t.next_xid in
  t.next_xid <- xid + 1;
  xid

let send_call t ~dst ~prog ~proc ~label (args : Xdr.t) =
  let xid = alloc_xid t in
  let reply = Sim.Ivar.create ~name:(label ^ " reply") () in
  Hashtbl.replace t.calls xid reply;
  Cluster.Node.transmit t.node ~dst
    (frame_of ~kind:kind_call ~xid ~prog ~proc ~header_bytes:call_header_bytes
       (Xdr.contents args));
  reply

let call_frame_bytes (args : Xdr.t) = call_header_bytes + Xdr.length args

let reply_frame_bytes (body : Xdr.t) =
  reply_header_bytes + reply_split_bytes + Xdr.length body

let send_reply t ~dst ~xid (body : Xdr.t) =
  let w = Atm.Codec.writer () in
  Atm.Codec.put_u32 w (Xdr.control_bytes body);
  Atm.Codec.put_u32 w (Xdr.data_bytes body);
  Atm.Codec.put_bytes w (Xdr.contents body);
  Cluster.Node.transmit t.node ~dst
    (frame_of ~kind:kind_reply ~xid ~prog:0 ~proc:0
       ~header_bytes:reply_header_bytes (Atm.Codec.contents w))

let register t ~prog ~deliver =
  if Hashtbl.mem t.programs prog then
    invalid_arg "Transport.register: program in use";
  Hashtbl.replace t.programs prog { deliver }

let node t = t.node
