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
   ivar with [None]; a late reply for attempt [k] finds attempt [k+1]'s
   ivar under the same request id and — because the server dedups — fills
   it with the identical answer. *)

let reply_id = 0xC7
let header_bytes = 4

type endpoint = {
  amsg : Amsg.t;
  node : Cluster.Node.t;
  mutable next_req : int;
  pending : bytes option Sim.Ivar.t Sim.Int_table.t; (* by request id *)
  mutable timeouts : int;
}

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
      Amsg.register amsg ~id:reply_id (fun ~src:_ body ->
          if Bytes.length body >= header_bytes then begin
            let req = Int32.to_int (Bytes.get_int32_le body 0) in
            match Sim.Int_table.find_opt ep.pending req with
            | None -> ()
            | Some iv ->
                Sim.Int_table.remove ep.pending req;
                ignore
                  (Sim.Ivar.try_fill iv
                     (Some
                        (Bytes.sub body header_bytes
                           (Bytes.length body - header_bytes))))
          end);
      Planes.replace endpoints amsg ep;
      ep

let timeouts ep = ep.timeouts

type service = src:Atm.Addr.t -> bytes -> bytes

(* Replies a source might still retransmit requests for.  Clients issue
   calls sequentially per endpoint, so a small window suffices. *)
let history_cap = 16

(* The reply a source's history holds for [req]. *)
let rec cached req = function
  | [] -> None
  | (r, reply) :: past ->
      if Int32.equal r req then Some reply else cached req past

let serve amsg ~id (f : service) =
  let recent : (int32 * bytes) list Sim.Int_table.t = Sim.Int_table.create 16 in
  Amsg.register amsg ~id (fun ~src body ->
      if Bytes.length body >= header_bytes then begin
        let req = Bytes.get_int32_le body 0 in
        let who = Atm.Addr.to_int src in
        let past = Option.value ~default:[] (Sim.Int_table.find_opt recent who) in
        let reply =
          match cached req past with
          | Some r -> r
          | None ->
              let r =
                f ~src
                  (Bytes.sub body header_bytes
                     (Bytes.length body - header_bytes))
              in
              let keep = (req, r) :: past in
              let keep =
                if List.length keep > history_cap then
                  List.filteri (fun i _ -> i < history_cap) keep
                else keep
              in
              Sim.Int_table.replace recent who keep;
              r
        in
        let frame = Bytes.create (header_bytes + Bytes.length reply) in
        Bytes.set_int32_le frame 0 req;
        Bytes.blit reply 0 frame header_bytes (Bytes.length reply);
        Amsg.send amsg ~dst:src ~handler:reply_id frame
      end)

let timeout = Sim.Time.us 400
let attempts = 12

let call ep ~dst ~id body =
  (* The id as the reply will carry it back: 32 bits, sign-extended. *)
  let req = Int32.to_int (Int32.of_int ep.next_req) in
  ep.next_req <- ep.next_req + 1;
  let frame = Bytes.create (header_bytes + Bytes.length body) in
  Bytes.set_int32_le frame 0 (Int32.of_int req);
  Bytes.blit body 0 frame header_bytes (Bytes.length body);
  let engine = Cluster.Node.engine ep.node in
  let rec attempt k =
    if k >= attempts then begin
      Sim.Int_table.remove ep.pending req;
      raise Rmem.Status.Timeout
    end;
    let iv = Sim.Ivar.create () in
    Sim.Int_table.replace ep.pending req iv;
    Amsg.send ep.amsg ~dst ~handler:id frame;
    (* [schedule_at], not [schedule ~after]: the optional argument
       would box the span on every attempt. *)
    Sim.Engine.schedule_at engine
      (Sim.Time.add (Sim.Engine.now engine) timeout)
      (fun () -> ignore (Sim.Ivar.try_fill iv None));
    match Sim.Ivar.read iv with
    | Some reply ->
        Sim.Int_table.remove ep.pending req;
        reply
    | None ->
        ep.timeouts <- ep.timeouts + 1;
        attempt (k + 1)
  in
  attempt 0
