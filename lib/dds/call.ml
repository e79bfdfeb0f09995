(* Request/response RPC over active messages — the control-transfer
   plane of the RPC-structured data structures.

   Wire format: every request and reply frame starts with a 4-byte
   little-endian request id, followed by the operation payload.  The
   client stamps a fresh id per logical call and reuses it across
   retransmissions; the server remembers the last few (id, reply) pairs
   per source and resends the cached reply on a duplicate, so retried
   calls are at-most-once even when the operation is not idempotent.

   Timeouts are the client's only failure signal (the paper's §3.7
   argument): each attempt takes a call record and arms a one-shot
   timer that marks it [expired]; a late reply for attempt [k] finds
   attempt [k+1]'s record under the same request id and — because the
   server dedups — fills it with the identical answer.  Ids are ints:
   the 32 wire bits, sign-extended. *)

let reply_id = 0xC7
let header_bytes = 4
let word b off = Int32.to_int (Bytes.get_int32_le b off)
let set_word b off v = Bytes.set_int32_le b off (Int32.of_int v)

(* A call attempt's record, from its endpoint's free stack.  [state] is
   the reply's length once it is in [reply] (the caller's buffer), or a
   marker below.  It goes back to the stack when its [holds] (the
   awaiter's until it reads [state], the timer's until it fires) drop to
   0, so a timer never fires into a reused record. *)
type record = {
  ep : endpoint;
  wait : Sim.Wait.t;
  mutable reply : bytes;
  mutable state : int;
  mutable holds : int;
  mutable fire : unit -> unit; (* the timer's thunk, built once *)
}

and endpoint = {
  amsg : Amsg.t;
  node : Cluster.Node.t;
  mutable next_req : int;
  pending : record Sim.Int_table.t; (* the current attempt's, by request id *)
  mutable free : record array; (* a stack in [free.(0 .. top - 1)] *)
  mutable top : int;
  traps : send Cluster.Cpu.chargers; (* the CPU as sends' traps charge it *)
}

(* An attempt's send in its trap, its lent charger's argument.  The caller
   parks on [parked], so a late reply during the trap wakes nobody. *)
and send = {
  parked : Sim.Wait.t;
  mutable r : record;
  mutable dst : Atm.Addr.t;
  mutable request : Atm.Frame.t;
}

let waiting = -1
let expired = -2
let overflowed = -3 (* the reply did not fit the caller's buffer *)
let label = Sim.Engine.Quoted ("ivar", "RPC reply")

let release r =
  r.holds <- r.holds - 1;
  if r.holds = 0 then begin
    let ep = r.ep in
    if ep.top = Array.length ep.free then
      ep.free <- Array.append ep.free (Array.make (ep.top + 4) r);
    ep.free.(ep.top) <- r;
    ep.top <- ep.top + 1
  end

let expire r =
  if r.state = waiting then begin
    r.state <- expired;
    Sim.Wait.unpark r.wait
  end;
  release r

let take ep reply =
  let r =
    if ep.top > 0 then (ep.top <- ep.top - 1; ep.free.(ep.top))
    else
      let r =
        { ep; wait = Sim.Wait.create (); reply; state = 0; holds = 0; fire = ignore }
      in
      r.fire <- (fun () -> expire r);
      r
  in
  r.reply <- reply;
  r.state <- waiting;
  r.holds <- 2;
  r

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
      let node = Amsg.node amsg in
      let ep =
        {
          amsg;
          node;
          next_req = 1;
          pending = Sim.Int_table.create 16;
          free = [||];
          top = 0;
          traps =
            Cluster.Cpu.chargers (Cluster.Node.cpu node) (Sim.Engine.Text "RPC trap");
        }
      in
      Amsg.register amsg ~id:reply_id (fun ~src:_ f ~pos ~len ->
          if len >= header_bytes then begin
            let req = word f pos in
            match Sim.Int_table.find ep.pending req with
            | exception Not_found -> ()
            | r ->
                Sim.Int_table.remove ep.pending req;
                let n = len - header_bytes in
                if r.state = waiting then begin
                  if n > Bytes.length r.reply then r.state <- overflowed
                  else (Bytes.blit f (pos + header_bytes) r.reply 0 n; r.state <- n);
                  Sim.Wait.unpark r.wait
                end
          end;
          Sim.Time.zero);
      Planes.replace endpoints amsg ep;
      ep

type reply = { buf : bytes; mutable len : int }
type service = src:Atm.Addr.t -> bytes -> pos:int -> len:int -> reply:reply -> Sim.Time.t

(* A frame of [len] bytes of [body] under [req]. *)
let frame amsg ~req body ~len =
  let f = Amsg.frame amsg ~len:(header_bytes + len) in
  let b = Atm.Frame.payload f in
  set_word b Amsg.header_bytes req;
  Bytes.blit body 0 b (Amsg.header_bytes + header_bytes) len;
  f

(* Replies a source might still retransmit requests for, in a ring per
   source.  Clients issue calls sequentially per endpoint, so a small
   window suffices.  Each slot owns a reply its service writes. *)
let history_cap = 16
let reply_bytes = 64

type history = { ids : int array; replies : reply array; mutable next : int }

(* The free slot's id: no sign-extended 32-bit request id equals it. *)
let no_id = min_int

let history () =
  { ids = Array.make history_cap no_id; next = 0;
    replies = Array.init history_cap (fun _ -> { buf = Bytes.create reply_bytes; len = 0 }) }

(* The ring slot holding [req], or -1. *)
let rec slot h req i =
  if i = history_cap then -1 else if h.ids.(i) = req then i else slot h req (i + 1)

(* An active-message handler: the reply goes out once the service's
   span is charged, so the mutation always precedes the charge. *)
let serve amsg ~id (f : service) =
  let recent : history Sim.Int_table.t = Sim.Int_table.create 16 in
  Amsg.register amsg ~id (fun ~src body ~pos ~len ->
      if len < header_bytes then Sim.Time.zero
      else begin
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
        let fresh = i < 0 in
        let i = if fresh then h.next else i in
        let r = h.replies.(i) in
        let span =
          if not fresh then Sim.Time.zero
          else begin
            (* The slot forgets its old id before its reply is overwritten. *)
            h.ids.(i) <- no_id;
            let span =
              f ~src body ~pos:(pos + header_bytes) ~len:(len - header_bytes) ~reply:r
            in
            h.ids.(i) <- req;
            h.next <- (i + 1) mod history_cap;
            span
          end
        in
        Amsg.reply amsg ~handler:reply_id (frame amsg ~req r.buf ~len:r.len);
        span
      end)

let timeout = Sim.Time.us 400
let attempts = 12

(* A send's trap's end, where a [Cpu.use] would have returned: send, arm
   the timer, then resume the caller inline if a reply came during the
   trap, else leave it on its record for the reply or the timer. *)
let sent s =
  let r = s.r in
  let ep = r.ep in
  Amsg.send_frame ep.amsg ~dst:s.dst s.request;
  let engine = Cluster.Node.engine ep.node in
  (* [schedule_at], not [schedule ~after]: the optional argument would
     box the span on every attempt. *)
  Sim.Engine.schedule_at engine
    (Sim.Time.add (Sim.Engine.now engine) timeout)
    r.fire;
  if r.state <> waiting then Sim.Wait.resume s.parked
  else Sim.Wait.hand_over s.parked r.wait

let new_send r =
  { parked = Sim.Wait.create (); r; dst = Cluster.Node.addr r.ep.node;
    request = Atm.Nic.none }

(* One attempt: the send's trap charged at event level, the caller
   parked once, until the reply or the timer. *)
let rec attempt ep ~dst ~id ~req body reply k =
  if k >= attempts then begin
    Sim.Int_table.remove ep.pending req;
    raise Rmem.Status.Timeout
  end;
  let r = take ep reply in
  Sim.Int_table.replace ep.pending req r;
  let f = frame ep.amsg ~req body ~len:(Bytes.length body) in
  let s =
    Cluster.Cpu.lend ep.traps new_send r ~category:Cluster.Cpu.cat_client
      (Amsg.prepare ep.amsg ~handler:id f) sent
  in
  s.r <- r;
  s.dst <- dst;
  s.request <- f;
  Sim.Wait.park s.parked ~resource:label;
  let n = r.state in
  release r;
  if n >= 0 then n
  else if n = expired then attempt ep ~dst ~id ~req body reply (k + 1)
  else invalid_arg "Dds.Call.call: reply longer than its buffer"

let call ep ~dst ~id body ~reply =
  (* The id as the reply will carry it back: 32 bits, sign-extended. *)
  let req = Int32.to_int (Int32.of_int ep.next_req) in
  ep.next_req <- ep.next_req + 1;
  attempt ep ~dst ~id ~req body reply 0
