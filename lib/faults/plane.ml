(* The fault plane: a deterministic saboteur interposed on every fabric
   link of a testbed, plus a crash/restart scheduler for its nodes.

   Determinism is the whole point.  Each link gets its own PRNG stream
   split off the plane's seed in the fabric's fixed construction order,
   and the interposer draws the SAME number of values for every offered
   frame whatever the verdict — so one link's verdicts never perturb
   another's, and a given (plan, seed) always produces the identical
   fault sequence.  The event log records every injected fault with its
   simulated time; its digest is what replay tests assert. *)

type t = {
  engine : Sim.Engine.t;
  plan : Plan.t;
  registry : Obs.Registry.t;
  mutable events : (Sim.Time.t * string) list; (* newest first *)
}

let log t label = t.events <- (Sim.Engine.now t.engine, label) :: t.events
let count t name = Obs.Registry.incr t.registry ("faults." ^ name)

let partitioned t now ~src ~dst =
  List.exists
    (fun p ->
      Plan.within p.Plan.windows now
      && List.mem src p.Plan.group <> List.mem dst p.Plan.group)
    t.plan.Plan.partitions

(* The ceiling of a jittered frame's extra delay. *)
let jitter_max = Sim.Time.us 50

(* One frame, one verdict.  The draws happen unconditionally and in a
   fixed order: a frame that ends up cut by a partition consumes exactly
   as much of the link's stream as one that sails through, so toggling
   one fault class never shifts the draws another class sees. *)
let judge t prng frame =
  count t "frames";
  let u_loss = Sim.Prng.float prng in
  let u_corrupt = Sim.Prng.float prng in
  let corrupt_byte = Sim.Prng.int prng 65536 in
  let u_duplicate = Sim.Prng.float prng in
  let u_jitter = Sim.Prng.float prng in
  let u_amount = Sim.Prng.float prng in
  let now = Sim.Engine.now t.engine in
  let src = Atm.Addr.to_int (Atm.Frame.src frame) in
  let dst = Atm.Addr.to_int (Atm.Frame.dst frame) in
  let tag k = Printf.sprintf "%s %d->%d" k src dst in
  if partitioned t now ~src ~dst then begin
    count t "partition_drops";
    log t (tag "cut");
    Atm.Link.Drop "partition"
  end
  else begin
    let f = t.plan.Plan.link in
    if not (Plan.active f.Plan.windows now) then Atm.Link.Deliver
    else if u_loss < f.Plan.loss then begin
      count t "drops";
      log t (tag "drop");
      Atm.Link.Drop "loss"
    end
    else if u_corrupt < f.Plan.corrupt then begin
      count t "corruptions";
      log t (tag "corrupt");
      Atm.Link.Corrupt corrupt_byte
    end
    else if u_duplicate < f.Plan.duplicate then begin
      count t "duplicates";
      log t (tag "duplicate");
      Atm.Link.Duplicate 1
    end
    else if u_jitter < f.Plan.jitter then begin
      count t "delays";
      log t (tag "delay");
      Atm.Link.Delay (Sim.Time.scale jitter_max u_amount)
    end
    else Atm.Link.Deliver
  end

let install t root (_, _, link) =
  let prng = Sim.Prng.split root in
  Atm.Link.set_overflow link Atm.Link.Drop_on_overflow;
  Atm.Link.set_interposer link (Some (judge t prng))

let schedule_crashes t testbed ~rmems ~preserve ~on_restart =
  (* Hash-indexed: crash plans on fabric-scale testbeds would otherwise
     rescan the endpoint list per scheduled event. *)
  let by_node = Hashtbl.create (2 * List.length rmems + 1) in
  List.iter (fun (n, rmem) -> Hashtbl.replace by_node n rmem) rmems;
  let rmem_of n = Hashtbl.find_opt by_node n in
  let at time thunk =
    (* A process, not a bare event: restart re-exports segments, which
       charges CPU and must run in process context. *)
    Sim.Proc.spawn
      ~after:(Sim.Time.diff time (Sim.Engine.now t.engine))
      ~name:"fault-plane" t.engine thunk
  in
  List.iter
    (fun c ->
      let node = Cluster.Testbed.node testbed c.Plan.node in
      at c.Plan.at (fun () ->
          count t "crashes";
          log t (Printf.sprintf "crash %d" c.Plan.node);
          Cluster.Node.set_down node true;
          Option.iter Rmem.Remote_memory.crash (rmem_of c.Plan.node));
      Option.iter
        (fun time ->
          at time (fun () ->
              count t "restarts";
              log t (Printf.sprintf "restart %d" c.Plan.node);
              Cluster.Node.set_down node false;
              Option.iter
                (Rmem.Remote_memory.restart_exports ~preserve)
                (rmem_of c.Plan.node);
              Option.iter (fun f -> f c.Plan.node) on_restart))
        c.Plan.restart_at)
    t.plan.Plan.crashes

(* Policy-driven recovery on a node, as the plane's registry counters
   and per-(node, segment) "recover:OP" latency series. *)
let on_recovery t node = function
  | Rmem.Remote_memory.Retried -> Obs.Registry.incr t.registry "rmem.retries"
  | Rmem.Remote_memory.Gave_up -> Obs.Registry.incr t.registry "rmem.gave_up"
  | Rmem.Remote_memory.Refused -> Obs.Registry.incr t.registry "rmem.refused"
  | Rmem.Remote_memory.Revalidated ->
      Obs.Registry.incr t.registry "rmem.revalidations"
  | Rmem.Remote_memory.Recovered { seg; op; elapsed } ->
      Obs.Registry.incr t.registry "rmem.recovered";
      Obs.Registry.observe t.registry
        ~node:(Atm.Addr.to_int (Cluster.Node.addr node))
        ~seg ~op:("recover:" ^ op) (Sim.Time.to_us elapsed)
  | _ -> ()

let create ?(plan = Plan.none) ?(rmems = []) ?(preserve = [])
    ?on_restart ~seed testbed =
  let engine = Cluster.Testbed.engine testbed in
  let t =
    {
      engine;
      plan;
      registry = Obs.Registry.create ();
      events = [];
    }
  in
  let root = Sim.Prng.create seed in
  List.iter (install t root) (Atm.Network.links (Cluster.Testbed.network testbed));
  List.iter
    (fun (_, rmem) ->
      let node = Rmem.Remote_memory.node rmem in
      Cluster.Node.subscribe node (on_recovery t node))
    rmems;
  schedule_crashes t testbed ~rmems ~preserve ~on_restart;
  t

let registry t = t.registry
let events t = List.rev t.events
let event_count t = List.length t.events

(* FNV-1a over "time label" lines, masked positive: equal digests mean
   the two runs injected the identical fault sequence at the identical
   instants — the replay contract's witness. *)
let digest t =
  let prime = 0x100000001b3 in
  let step acc byte = (acc lxor byte) * prime land max_int in
  List.fold_left
    (fun acc (time, label) ->
      let acc = step acc (Sim.Time.to_ns time land 0xFFFFFFFF) in
      let acc = step acc (Sim.Time.to_ns time lsr 32) in
      String.fold_left (fun acc c -> step acc (Char.code c)) acc label)
    (0x3bf29ce484222325 (* FNV offset basis, folded into 63 bits *))
    (events t)
