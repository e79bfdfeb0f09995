(* The instrumentation hub.  See the .mli for the clock model; the
   mechanics here are:

   - one agent (vector-clock component) per node address, registered on
     first sight;
   - per (issuer, segment, op) FIFO queues pairing Issued events with
     their Served (and, for READ/CAS, Completed) events, so an access
     recorded at the destination carries the issuer's issue-time clock —
     serve time alone would let a later synchronization falsely order an
     in-flight unacknowledged WRITE;
   - per (issuer, destination-node) lists of served-but-unwitnessed
     WRITE accesses, flushed into visibility by the next genuine reply
     the issuer receives from that node (links are FIFO);
   - per-segment FIFO channels carrying (stamp, accesses-to-witness)
     from notify-serves to the matching notification deliveries;
   - per (segment, word) lock clocks implementing CAS release/acquire. *)

type agent = {
  id : int;
  name : string;
  mutable clock : Vclock.t;
}

(* One issued meta-instruction in flight.  [remaining] counts data bytes
   still to be served (a large WRITE is served in bursts, one event per
   chunk); READ and CAS are served in one event. *)
type flight = {
  snapshot : Vclock.t;
  policied : bool; (* issued under a Recovery policy (or a pipeline
                      flush retrying through one): its failed CAS serves
                      must not extend an unbounded-retry chain *)
  issued_at : Sim.Time.t; (* the history event's invocation time *)
  cas : (int32 * int32) option; (* CAS (expected, desired) arguments *)
  batch : int option; (* pipeline window cycle carrying the issue *)
  mutable remaining : int;
  mutable accesses : Access.t list;
  mutable acquired : Vclock.t option; (* CAS: lock clock captured at serve *)
  mutable hist : History.handle; (* serve-time events awaiting their resp *)
}

(* One run of consecutive failed CAS attempts by one agent on one word.
   [len] is the current run, [worst] the longest seen; a success, an
   intervening non-CAS access to the segment by the same agent, or a
   pause longer than [retry_backoff_floor] resets [len].  Reissues
   sharing one pipeline batch (one window cycle) are one logical
   attempt: they extend the run once, not per issue. *)
type retry_chain = {
  mutable len : int;
  mutable last : Sim.Time.t;
  mutable last_batch : int option;
  mutable worst : int;
}

type rejection = {
  site : [ `Issue | `Serve ];
  agent_name : string;
  key : Access.seg_key;
  op : Rmem.Rights.op;
  off : int;
  count : int;
  status : Rmem.Status.t;
  time : Sim.Time.t;
}

type t = {
  engine : Sim.Engine.t;
  agents : (int, agent) Hashtbl.t; (* node address -> agent *)
  mutable agent_count : int;
  mutable accesses : Access.t list; (* newest first *)
  mutable next_access_id : int;
  issue_q : (int * Access.seg_key * Rmem.Rights.op, flight Queue.t) Hashtbl.t;
  completion_q :
    (int * Access.seg_key * Rmem.Rights.op, flight Queue.t) Hashtbl.t;
  unflushed : (int * int, Access.t list ref) Hashtbl.t;
  (* (agent id, destination node) -> served WRITEs awaiting a witness *)
  channels : (Access.seg_key, (Vclock.t * Access.t list) Queue.t) Hashtbl.t;
  locks : (Access.seg_key * int, Vclock.t) Hashtbl.t;
  declared_sync : (Access.seg_key * int, unit) Hashtbl.t;
  policies : (Access.seg_key, Rmem.Segment.notify_policy) Hashtbl.t;
  exports : (int * int, Access.seg_key) Hashtbl.t;
  (* (home, segment id) -> the key of its latest export, which names the
     segment's notification deliveries *)
  retries : (string * Access.seg_key * int, retry_chain) Hashtbl.t;
  (* (agent name, segment, word offset) -> failed-CAS run lengths *)
  history : History.t;
  mutable rejections : rejection list;
  mutable nacks : int;
  mutable lrpc_calls : int;
}

let create engine =
  {
    engine;
    agents = Hashtbl.create 8;
    agent_count = 0;
    accesses = [];
    next_access_id = 0;
    issue_q = Hashtbl.create 32;
    completion_q = Hashtbl.create 32;
    unflushed = Hashtbl.create 8;
    channels = Hashtbl.create 8;
    locks = Hashtbl.create 8;
    declared_sync = Hashtbl.create 8;
    policies = Hashtbl.create 8;
    exports = Hashtbl.create 8;
    retries = Hashtbl.create 8;
    history = History.create ();
    rejections = [];
    nacks = 0;
    lrpc_calls = 0;
  }

let now t = Sim.Engine.now t.engine

let agent_for t addr =
  match Hashtbl.find_opt t.agents addr with
  | Some a -> a
  | None ->
      let a =
        {
          id = t.agent_count;
          name = Printf.sprintf "node%d" addr;
          clock = Vclock.empty;
        }
      in
      t.agent_count <- t.agent_count + 1;
      Hashtbl.replace t.agents addr a;
      a

let tick a = a.clock <- Vclock.tick a.clock a.id

let key_of_desc desc =
  {
    Access.home = Atm.Addr.to_int (Rmem.Descriptor.remote desc);
    seg = Rmem.Descriptor.segment_id desc;
    gen = Rmem.Generation.to_int (Rmem.Descriptor.generation desc);
  }

let key_of_segment ~home segment =
  {
    Access.home;
    seg = Rmem.Segment.id segment;
    gen = Rmem.Generation.to_int (Rmem.Segment.generation segment);
  }

let push q k v =
  let queue =
    match Hashtbl.find_opt q k with
    | Some queue -> queue
    | None ->
        let queue = Queue.create () in
        Hashtbl.replace q k queue;
        queue
  in
  Queue.push v queue

let peek q k =
  match Hashtbl.find_opt q k with
  | Some queue when not (Queue.is_empty queue) -> Some (Queue.peek queue)
  | _ -> None

let pop q k =
  match Hashtbl.find_opt q k with
  | Some queue when not (Queue.is_empty queue) -> Some (Queue.pop queue)
  | _ -> None

let record_access t ~agent ~key ~seg_name ~kind ~off ~count ~stamp ~vis ~origin
    =
  let access =
    {
      Access.id = t.next_access_id;
      agent = agent.id;
      agent_name = agent.name;
      key;
      seg_name;
      kind;
      off;
      count;
      time = now t;
      stamp;
      vis;
      origin;
    }
  in
  t.next_access_id <- t.next_access_id + 1;
  t.accesses <- access :: t.accesses;
  access

let unflushed_list t ~agent_id ~home =
  match Hashtbl.find_opt t.unflushed (agent_id, home) with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace t.unflushed (agent_id, home) l;
      l

let witness accesses clock =
  List.iter (fun (a : Access.t) -> a.vis <- clock :: a.vis) accesses

let kind_of_op = function
  | Rmem.Rights.Read_op -> Access.Load
  | Rmem.Rights.Write_op -> Access.Store
  | Rmem.Rights.Cas_op -> Access.Atomic

(* A CAS retried after at least this pause counts as backing off; only
   faster retries extend a failed-CAS run. *)
let retry_backoff_floor = Sim.Time.us 150

let note_cas_retry t ~agent_name ~key ~off ~policied ~batch ~success =
  let chain_key = (agent_name, key, off) in
  let chain =
    match Hashtbl.find_opt t.retries chain_key with
    | Some c -> c
    | None ->
        let c =
          { len = 0; last = Sim.Time.zero; last_batch = None; worst = 0 }
        in
        Hashtbl.replace t.retries chain_key c;
        c
  in
  if success then chain.len <- 0
  else if policied then begin
    (* A policy-governed reissue already backs off and bounds its
       attempts; counting it here would double-report the same retry
       as an unbounded chain. *)
    chain.len <- 0;
    chain.last <- now t
  end
  else begin
    let same_batch =
      match (batch, chain.last_batch) with
      | Some b, Some b' -> b = b'
      | _ -> false
    in
    if same_batch && chain.len > 0 then
      (* Another failure out of the same pipeline window cycle: the
         caller made one logical attempt, however many issues the
         window carried. *)
      chain.last <- now t
    else begin
      let gap = Sim.Time.diff (now t) chain.last in
      chain.len <-
        (if chain.len > 0 && Sim.Time.(gap <= retry_backoff_floor) then
           chain.len + 1
         else 1);
      chain.last <- now t;
      chain.last_batch <- batch;
      if chain.len > chain.worst then chain.worst <- chain.len
    end
  end

let break_cas_retries t ~agent_name ~key =
  Hashtbl.iter
    (fun (a, k, _) chain -> if a = agent_name && k = key then chain.len <- 0)
    t.retries

(* A notification record became visible to user code on the segment's
   home node: join the sender's stamp, and witness the accesses the
   serve-side end of the channel captured. *)
let on_delivery t ~key =
  let dest = agent_for t key.Access.home in
  (match pop t.channels key with
  | Some (stamp, to_witness) ->
      dest.clock <- Vclock.join dest.clock stamp;
      tick dest;
      witness to_witness dest.clock
  | None -> tick dest)

let on_export t ~home segment =
  let key = key_of_segment ~home segment in
  Hashtbl.replace t.policies key (Rmem.Segment.policy segment);
  (* Libraries that mutate their own exported memory locally, outside
     any hook (the name-service clerk's well-known segments, the
     replica store), produce incomplete operation histories; checking
     those would report phantom violations, so they are excluded by
     name. *)
  let locally_mutated =
    List.exists
      (fun prefix -> String.starts_with ~prefix (Rmem.Segment.name segment))
      [ "wk:"; "replica:" ]
  in
  if locally_mutated then History.exclude t.history ~key
  else History.note_export t.history ~key segment;
  Hashtbl.replace t.exports (home, Rmem.Segment.id segment) key

let logical_begin t ~agent_name =
  History.scope_begin t.history ~agent:agent_name ~now:(now t)

let logical_commit t ~agent_name ~cell ~op =
  History.scope_end t.history ~agent:agent_name ~cell ~op ~now:(now t)

let dds_op = function
  | Dds.Plane.Read v -> History.Read (History.Known (Int32.of_int v))
  | Dds.Plane.Write v -> History.Write (History.Known (Int32.of_int v))
  | Dds.Plane.Sync -> History.Read History.Unknown

let on_event t ~self_addr event =
  let self () = agent_for t self_addr in
  match event with
  | Rmem.Notification.Delivered { segment; record = _ } -> (
      match Hashtbl.find_opt t.exports (self_addr, segment) with
      | Some key -> on_delivery t ~key
      | None -> ())
  | Cluster.Lrpc.Called ->
      tick (self ());
      t.lrpc_calls <- t.lrpc_calls + 1
  | Dds.Plane.Begin -> logical_begin t ~agent_name:(self ()).name
  | Dds.Plane.Commit { home; seg; gen; word; op } ->
      logical_commit t ~agent_name:(self ()).name
        ~cell:{ History.key = { Access.home; seg; gen }; word }
        ~op:(dds_op op)
  | Rmem.Remote_memory.Exported segment -> on_export t ~home:self_addr segment
  | Rmem.Remote_memory.Issued
      { op; desc; off = _; count; notify = _; policied; cas; batch } ->
      let a = self () in
      tick a;
      let key = key_of_desc desc in
      let flight =
        {
          snapshot = a.clock;
          policied;
          issued_at = now t;
          cas;
          batch;
          remaining = (if op = Rmem.Rights.Write_op then Stdlib.max count 1 else 1);
          accesses = [];
          acquired = None;
          hist = History.no_handle;
        }
      in
      push t.issue_q (a.id, key, op) flight;
      if op <> Rmem.Rights.Write_op then
        push t.completion_q (a.id, key, op) flight
  | Rmem.Remote_memory.Issue_rejected { op; desc; off; count; status } ->
      let a = self () in
      tick a;
      t.rejections <-
        {
          site = `Issue;
          agent_name = a.name;
          key = key_of_desc desc;
          op;
          off;
          count;
          status;
          time = now t;
        }
        :: t.rejections
  | Rmem.Remote_memory.Served
      { op; src; segment; off; count; notified; cas_success } ->
      let key = key_of_segment ~home:self_addr segment in
      let issuer = agent_for t (Atm.Addr.to_int src) in
      let flight = peek t.issue_q (issuer.id, key, op) in
      let stamp =
        match flight with Some f -> f.snapshot | None -> issuer.clock
      in
      let access =
        record_access t ~agent:issuer ~key
          ~seg_name:(Rmem.Segment.name segment) ~kind:(kind_of_op op) ~off
          ~count ~stamp ~vis:[] ~origin:(Access.Meta op)
      in
      (match op with
      | Rmem.Rights.Cas_op ->
          note_cas_retry t ~agent_name:issuer.name ~key ~off
            ~policied:(match flight with Some f -> f.policied | None -> false)
            ~batch:(match flight with Some f -> f.batch | None -> None)
            ~success:(cas_success = Some true)
      | Rmem.Rights.Read_op | Rmem.Rights.Write_op ->
          break_cas_retries t ~agent_name:issuer.name ~key);
      (let inv =
         match flight with Some f -> f.issued_at | None -> now t
       in
       let handle =
         History.record_serve t.history ~agent:issuer.name ~key ~segment ~op
           ~off ~count
           ~cas:(match flight with Some f -> f.cas | None -> None)
           ~cas_success ~inv ~now:(now t)
       in
       match flight with
       | Some f when op <> Rmem.Rights.Write_op -> f.hist <- handle
       | _ -> ());
      (match flight with
      | None -> ()
      | Some f -> (
          f.accesses <- access :: f.accesses;
          (match op with
          | Rmem.Rights.Write_op ->
              f.remaining <- f.remaining - Stdlib.max count 1;
              if f.remaining <= 0 then
                ignore (pop t.issue_q (issuer.id, key, op))
          | Rmem.Rights.Read_op | Rmem.Rights.Cas_op ->
              ignore (pop t.issue_q (issuer.id, key, op)));
          match cas_success with
          | Some true ->
              (* Lock-word release/acquire: remember the previous
                 publication for the issuer's completion, then publish
                 the issuer's issue-time clock. *)
              let lock_key = (key, off) in
              let held =
                Option.value
                  (Hashtbl.find_opt t.locks lock_key)
                  ~default:Vclock.empty
              in
              f.acquired <- Some held;
              Hashtbl.replace t.locks lock_key (Vclock.join held f.snapshot)
          | Some false | None -> ()));
      if op = Rmem.Rights.Write_op then begin
        let l = unflushed_list t ~agent_id:issuer.id ~home:key.Access.home in
        l := access :: !l
      end;
      if notified then
        let to_witness =
          if op = Rmem.Rights.Write_op then
            !(unflushed_list t ~agent_id:issuer.id ~home:key.Access.home)
          else [ access ]
        in
        push t.channels key (stamp, to_witness)
  | Rmem.Remote_memory.Serve_rejected { op; src; seg; gen; off; count; status }
    ->
      t.rejections <-
        {
          site = `Serve;
          agent_name = (agent_for t (Atm.Addr.to_int src)).name;
          key =
            {
              Access.home = self_addr;
              seg;
              gen = Rmem.Generation.to_int gen;
            };
          op;
          off;
          count;
          status;
          time = now t;
        }
        :: t.rejections
  | Rmem.Remote_memory.Nacked _ -> t.nacks <- t.nacks + 1
  | Rmem.Remote_memory.Completed { op; desc; off; count = _; status = _; cas_success }
    ->
      (* A genuine reply reached the issuer: everything it sent this
         remote earlier has been processed (FIFO links). *)
      let a = self () in
      tick a;
      let key = key_of_desc desc in
      let flight = pop t.completion_q (a.id, key, op) in
      (match flight with
      | Some f -> History.complete t.history f.hist ~now:(now t)
      | None -> ());
      (match (op, cas_success, flight) with
      | Rmem.Rights.Cas_op, Some true, Some { acquired = Some held; _ } ->
          a.clock <- Vclock.join a.clock held
      | _ -> ());
      let w = a.clock in
      (match flight with Some f -> witness f.accesses w | None -> ());
      let l = unflushed_list t ~agent_id:a.id ~home:key.Access.home in
      witness !l w;
      l := [];
      ignore off
  | _ -> ()

let attach t node =
  let self_addr = Atm.Addr.to_int (Cluster.Node.addr node) in
  ignore (agent_for t self_addr);
  Cluster.Node.subscribe node (on_event t ~self_addr)

let local_access t ~node ~segment ~kind ~off ~count ?value () =
  let home = Atm.Addr.to_int (Cluster.Node.addr node) in
  let a = agent_for t home in
  tick a;
  let key = key_of_segment ~home segment in
  History.record_local t.history ~agent:a.name ~key
    ~kind:(match kind with Access.Store -> `Store | _ -> `Load)
    ~off ~count ?value ~now:(now t) ();
  ignore
    (record_access t ~agent:a ~key ~seg_name:(Rmem.Segment.name segment) ~kind
       ~off ~count ~stamp:a.clock ~vis:[ a.clock ] ~origin:Access.Local)

let history t = t.history

let declare_sync_word t ~key ~off =
  Hashtbl.replace t.declared_sync (key, off) ()

let accesses t = List.rev t.accesses
let access_count t = t.next_access_id

let accesses_from t ~id =
  let rec take acc = function
    | (a : Access.t) :: rest when a.id >= id -> take (a :: acc) rest
    | _ -> acc
  in
  take [] t.accesses

let worst_cas_retries t =
  Hashtbl.fold
    (fun (agent, key, off) chain acc ->
      if chain.worst > 0 then ((agent, key, off), chain.worst) :: acc else acc)
    t.retries []
  |> List.sort Stdlib.compare

let rejections t = List.rev t.rejections
let policy_of t key = Hashtbl.find_opt t.policies key
let is_declared_sync t ~key ~off = Hashtbl.mem t.declared_sync (key, off)
let agent_count t = t.agent_count
let lrpc_calls t = t.lrpc_calls
