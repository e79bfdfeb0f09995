(* Request/response RPC over active messages — the control-transfer
   plane of the RPC-structured data structures.

   Wire format: every request and reply frame starts with a 4-byte
   little-endian request id, followed by the operation payload.  The
   client stamps a fresh id per logical call and reuses it across
   retransmissions; the server remembers the last few (id, reply) pairs
   per source and resends the cached reply on a duplicate, so retried
   calls are at-most-once even when the operation is not idempotent.

   Timeouts are the client's only failure signal (the paper's §3.7
   argument): each attempt arms a one-shot timer that fills the reply
   ivar with [expired]; a late reply for attempt [k] finds attempt
   [k+1]'s ivar under the same request id and — because the server
   dedups — fills it with the identical answer.  Ids are ints: the 32
   wire bits, sign-extended. *)

let reply_id = 0xC7
let header_bytes = 4
let word b off = Int32.to_int (Bytes.get_int32_le b off)
let set_word b off v = Bytes.set_int32_le b off (Int32.of_int v)

(* An active-message frame carrying [req] and the one copy of [body]. *)
let frame ~req body =
  let len = Bytes.length body in
  let f = Amsg.frame ~len:(header_bytes + len) in
  set_word f Amsg.header_bytes req;
  Bytes.blit body 0 f (Amsg.header_bytes + header_bytes) len;
  f

type endpoint = {
  amsg : Amsg.t;
  node : Cluster.Node.t;
  mutable next_req : int;
  pending : bytes Sim.Ivar.t Sim.Int_table.t; (* by request id *)
  mutable timeouts : int;
}

(* What a timed-out attempt's ivar holds: no reply is this block. *)
let expired = Bytes.create 0

(* One endpoint per active-message plane, keyed by physical identity so
   distinct testbeds never collide; the reply handler is registered
   exactly once per plane.  The table holds its keys weakly: an endpoint
   lives exactly as long as its plane, so a dropped testbed takes its
   endpoints with it. *)
module Planes = Ephemeron.K1.Make (struct
  type t = Amsg.t

  let equal = ( == )
  let hash a = Atm.Addr.to_int (Cluster.Node.addr (Amsg.node a))
end)

let endpoints : endpoint Planes.t = Planes.create 16

let endpoint amsg =
  match Planes.find_opt endpoints amsg with
  | Some ep -> ep
  | None ->
      let ep =
        {
          amsg;
          node = Amsg.node amsg;
          next_req = 1;
          pending = Sim.Int_table.create 16;
          timeouts = 0;
        }
      in
      Amsg.register amsg ~id:reply_id (fun ~src:_ f ~pos ~len ->
          if len >= header_bytes then begin
            let req = word f pos in
            match Sim.Int_table.find ep.pending req with
            | exception Not_found -> ()
            | iv ->
                Sim.Int_table.remove ep.pending req;
                ignore
                  (Sim.Ivar.try_fill iv
                     (Bytes.sub f (pos + header_bytes) (len - header_bytes)))
          end);
      Planes.replace endpoints amsg ep;
      ep

let timeouts ep = ep.timeouts

type service = src:Atm.Addr.t -> bytes -> bytes

(* Replies a source might still retransmit requests for, in a ring per
   source.  Clients issue calls sequentially per endpoint, so a small
   window suffices. *)
let history_cap = 16

type history = { ids : int array; replies : bytes array; mutable next : int }

(* The free slot's id: no sign-extended 32-bit request id equals it. *)
let no_id = min_int

let history () =
  {
    ids = Array.make history_cap no_id;
    replies = Array.make history_cap Bytes.empty;
    next = 0;
  }

(* The ring slot holding [req], or -1. *)
let rec slot h req i =
  if i = history_cap then -1 else if h.ids.(i) = req then i else slot h req (i + 1)

let serve amsg ~id (f : service) =
  let recent : history Sim.Int_table.t = Sim.Int_table.create 16 in
  Amsg.register amsg ~id (fun ~src body ~pos ~len ->
      if len >= header_bytes then begin
        let req = word body pos in
        let who = Atm.Addr.to_int src in
        let h =
          match Sim.Int_table.find recent who with
          | h -> h
          | exception Not_found ->
              let h = history () in
              Sim.Int_table.replace recent who h;
              h
        in
        let i = slot h req 0 in
        let reply =
          if i >= 0 then h.replies.(i)
          else begin
            let r =
              f ~src (Bytes.sub body (pos + header_bytes) (len - header_bytes))
            in
            h.ids.(h.next) <- req;
            h.replies.(h.next) <- r;
            h.next <- (h.next + 1) mod history_cap;
            r
          end
        in
        Amsg.send_frame amsg ~dst:src ~handler:reply_id (frame ~req reply)
      end)

let timeout = Sim.Time.us 400
let attempts = 12

let call ep ~dst ~id body =
  (* The id as the reply will carry it back: 32 bits, sign-extended. *)
  let req = Int32.to_int (Int32.of_int ep.next_req) in
  ep.next_req <- ep.next_req + 1;
  let f = frame ~req body in
  let engine = Cluster.Node.engine ep.node in
  let rec attempt k =
    if k >= attempts then begin
      Sim.Int_table.remove ep.pending req;
      raise Rmem.Status.Timeout
    end;
    let iv = Sim.Ivar.create () in
    Sim.Int_table.replace ep.pending req iv;
    Amsg.send_frame ep.amsg ~dst ~handler:id f;
    (* [schedule_at], not [schedule ~after]: the optional argument
       would box the span on every attempt. *)
    Sim.Engine.schedule_at engine
      (Sim.Time.add (Sim.Engine.now engine) timeout)
      (fun () -> ignore (Sim.Ivar.try_fill iv expired));
    let reply = Sim.Ivar.read iv in
    if reply != expired then begin
      Sim.Int_table.remove ep.pending req;
      reply
    end
    else begin
      ep.timeouts <- ep.timeouts + 1;
      attempt (k + 1)
    end
  in
  attempt 0
