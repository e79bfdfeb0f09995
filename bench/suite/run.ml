(* One run of one workload in this process: set-up, the measured phase
   on both clocks, the public counters read at its two boundaries, and
   (when traced) the per-layer breakdown.  The result is a flat list of
   named numbers and the sorted per-op sim latencies; the parent process
   aggregates runs. *)

let fi = float_of_int
let sum l f = List.fold_left (fun acc x -> acc +. f x) 0. l

(* Nearest-rank percentile of sorted samples; nan unless at least ten
   samples lie beyond it, so that a tail figure is never one sample. *)
let percentile sorted p =
  let n = Array.length sorted in
  if fi n *. (1. -. (p /. 100.)) < 10. then Float.nan
  else sorted.(max 0 (int_of_float (Float.ceil (p /. 100. *. fi n)) - 1))

(* ------------------------------------------------------------------ *)
(* Public counters, read at both boundaries of the measured phase.     *)

let cpu_categories =
  [
    ("data_reception", Cluster.Cpu.cat_data_reception);
    ("data_reply", Cluster.Cpu.cat_data_reply);
    ("control_transfer", Cluster.Cpu.cat_control_transfer);
    ("procedure", Cluster.Cpu.cat_procedure);
    ("emulation", Cluster.Cpu.cat_emulation);
  ]

let rejections =
  Rmem.Status.
    [ Bad_segment; Protection; Bounds; Stale_generation; Write_inhibited; Unpinned ]

type snapshot = {
  scalars : (string * float) list;
  link_busy : float array;  (** us, every fabric link *)
  server_busy : float array;  (** us, every serving node *)
}

let snapshot (rig : Loads.rig) =
  let net = Cluster.Testbed.network rig.testbed in
  let links = List.map (fun (_, _, l) -> l) (Atm.Network.links net) in
  let hosts = Loads.host_links rig in
  let nics = List.init (Atm.Network.size net) (Atm.Network.nic_of_int net) in
  let cpu i = Cluster.Node.cpu (Loads.node rig i) in
  let busy i = Sim.Time.to_us (Cluster.Cpu.busy_time (cpu i)) in
  let rmem acc c = sum rig.rmems (fun r -> Metrics.Account.total_of (acc r) c) in
  let clients = Array.to_list (Array.map (fun (c : Loads.client) -> c.node) rig.clients) in
  let notifications r =
    Rmem.Notification.posted (Rmem.Remote_memory.completion_fd r)
    + List.fold_left
        (fun acc s -> acc + Rmem.Notification.posted (Rmem.Segment.notification s))
        0 (Rmem.Remote_memory.exports r)
  in
  {
    scalars =
      [
        ("events", fi (Sim.Engine.events_fired (Cluster.Testbed.engine rig.testbed)));
        ("frames", sum hosts (fun l -> fi (Atm.Link.frames_sent l)));
        ("cells", sum hosts (fun l -> fi (Atm.Link.cells_sent l)));
        ("wire_bytes", sum hosts (fun l -> fi (Atm.Link.wire_bytes l)));
        ( "drops",
          sum links (fun l -> fi (Atm.Link.drops l + Atm.Link.overflow_drops l))
          +. sum (Atm.Network.switches net) (fun s -> fi (Atm.Switch.drops s))
          +. sum nics (fun n -> fi (Atm.Nic.route_drops n)) );
        ("crc_errors", sum nics (fun n -> fi (Atm.Nic.crc_errors n)));
        ("reads", rmem Rmem.Remote_memory.ops "read");
        ("writes", rmem Rmem.Remote_memory.ops "write");
        ("bursts", rmem Rmem.Remote_memory.ops "write burst");
        ("cas", rmem Rmem.Remote_memory.ops "cas");
        ( "bytes",
          rmem Rmem.Remote_memory.data_bytes "read"
          +. rmem Rmem.Remote_memory.data_bytes "write" );
        ("notifications", sum rig.rmems (fun r -> fi (notifications r)));
        ("timeouts", rmem Rmem.Remote_memory.errors "timeout");
        ("retries", rmem Rmem.Remote_memory.errors "retry");
        ( "nacks",
          sum rejections (fun s ->
              rmem Rmem.Remote_memory.errors (Rmem.Status.to_string s)) );
        ("client_busy", sum clients busy);
      ]
      @ List.map
          (fun (name, cat) ->
            ( "server." ^ name,
              sum rig.servers (fun i ->
                  Metrics.Account.total_of (Cluster.Cpu.account (cpu i)) cat) ))
          cpu_categories;
    link_busy =
      Array.of_list (List.map (fun l -> Sim.Time.to_us (Atm.Link.busy_time l)) links);
    server_busy = Array.of_list (List.map busy rig.servers);
  }

(* ------------------------------------------------------------------ *)
(* The measured phase.                                                 *)

type ending = {
  cpu : float;
  sim_us : float;
  words : float;
  after : snapshot;
  layer : (string * float) list;
}

let measure ~traced ~seed ~per_client
    (build : seed:int -> per_client:int -> Loads.rig) =
  let setup_start = Host.cpu_s () in
  let rig = build ~seed ~per_client in
  let engine = Cluster.Testbed.engine rig.testbed in
  let clients = rig.clients in
  let lat = Array.map (fun (c : Loads.client) -> Array.make (Array.length c.ops) 0.) clients in
  let ops = Array.fold_left (fun n l -> n + Array.length l) 0 lat in
  let goodput = ref 0 and failed = ref 0 in
  let failures = ref [] in
  let tr, before, setup_s, e, (post_failures, post_metrics) =
    Cluster.Testbed.run rig.testbed (fun () ->
        let tr = if traced then Some (Breakdown.attach rig) else None in
        let before = snapshot rig in
        let layer_end = rig.layer () in
        let start_us = Sim.Time.to_us (Sim.Engine.now engine) in
        let setup_s = Host.cpu_s () -. setup_start in
        let words = Host.alloc_words () in
        let cpu = Host.cpu_s () in
        let finished = Sim.Ivar.create ~name:"bench finished" () in
        let tasks =
          ref
            (Array.length clients
            + match rig.at_half with Some _ -> 1 | None -> 0)
        in
        let task_done () =
          decr tasks;
          if !tasks = 0 then begin
            let cpu1 = Host.cpu_s () in
            let sim_us = Sim.Time.to_us (Sim.Engine.now engine) -. start_us in
            let words1 = Host.alloc_words () in
            Option.iter Breakdown.detach tr;
            Sim.Ivar.fill finished
              {
                cpu = cpu1 -. cpu;
                sim_us;
                words = words1 -. words;
                after = snapshot rig;
                layer = layer_end ~ops;
              }
          end
        in
        let halfway = Sim.Ivar.create ~name:"bench halfway" () in
        let arrived = ref 0 in
        Array.iteri
          (fun k (c : Loads.client) ->
            let node = Loads.node rig c.node in
            let addr = Atm.Addr.to_int (Cluster.Node.addr node) in
            let half = Array.length c.ops / 2 in
            Cluster.Node.spawn node ~name:(Printf.sprintf "client.%d" k)
              (fun () ->
                Array.iteri
                  (fun i op ->
                    Sim.Proc.wait (Sim.Time.ns c.think_ns.(i));
                    if i = half then begin
                      incr arrived;
                      if !arrived = Array.length clients then
                        Sim.Ivar.fill halfway ()
                    end;
                    let scope = Obs.Trace.scope_begin ~node:addr ~name:"op" in
                    let t0 = Sim.Engine.now engine in
                    (match op () with
                    | bytes -> goodput := !goodput + bytes
                    | exception e ->
                        incr failed;
                        if List.length !failures < 5 then
                          failures := Printexc.to_string e :: !failures);
                    Obs.Trace.scope_end scope;
                    lat.(k).(i) <- Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now engine) t0))
                  c.ops;
                task_done ()))
          clients;
        Option.iter
          (fun act ->
            Sim.Proc.spawn engine ~name:"control" (fun () ->
                Sim.Ivar.read halfway;
                act ();
                task_done ()))
          rig.at_half;
        let ending = Sim.Ivar.read finished in
        (tr, before, setup_s, ending, rig.post ()))
  in
  List.iter prerr_endline (List.rev !failures);
  let d name = List.assoc name e.after.scalars -. List.assoc name before.scalars in
  let per_op name = d name /. fi ops in
  let sim_s = e.sim_us /. 1e6 in
  let server_busy =
    Array.mapi (fun i b -> b -. before.server_busy.(i)) e.after.server_busy
  in
  let max_util busy0 busy1 =
    let m = ref 0. in
    Array.iteri (fun i b -> m := Float.max !m ((b -. busy0.(i)) /. e.sim_us)) busy1;
    !m
  in
  let samples keep =
    let a = Array.concat (List.filteri (fun k _ -> keep clients.(k)) (Array.to_list lat)) in
    Array.sort Float.compare a;
    a
  in
  let s = samples (fun _ -> true) in
  let groups =
    List.mapi
      (fun g name ->
        ( name ^ ".p99_us",
          percentile (samples (fun (c : Loads.client) -> c.group = g)) 99. ))
      rig.groups
  in
  let goodput = fi !goodput in
  let metrics =
    [
      ("sim_p50_us", percentile s 50.);
      ("sim_p99_us", percentile s 99.);
      ("sim_ops_per_s", fi ops /. sim_s);
      ("sim_goodput_mbps", goodput *. 8. /. sim_s /. 1e6);
      ("sim_server_cpu_us_per_op", Array.fold_left ( +. ) 0. server_busy /. fi ops);
      ("host_ops_per_s", fi ops /. e.cpu);
      ("host_words_per_op", e.words /. fi ops);
      ( "host_peak_heap_mb",
        fi ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6 );
      ("setup_s", setup_s);
      ("host_cpu_s", e.cpu);
      ("sim.events_per_op", per_op "events");
      ("atm.frames_per_op", per_op "frames");
      ("atm.cells_per_op", per_op "cells");
      ("atm.wire_bytes_per_op", per_op "wire_bytes");
      ("atm.goodput_ratio", Loads.ratio goodput (d "wire_bytes"));
      ("atm.link_util_max", max_util before.link_busy e.after.link_busy);
      ("atm.drops", d "drops");
      ("atm.crc_errors", d "crc_errors");
      ("cluster.server_cpu_util_max", max_util before.server_busy e.after.server_busy);
      ("cluster.client_cpu_us_per_op", per_op "client_busy");
      ("rmem.reads_per_op", per_op "reads");
      ("rmem.writes_per_op", per_op "writes");
      ("rmem.bursts_per_op", per_op "bursts");
      ("rmem.cas_per_op", per_op "cas");
      ("rmem.round_trips_per_op", (d "reads" +. d "cas") /. fi ops);
      ("rmem.bytes_per_op", per_op "bytes");
      ("rmem.notifications_per_op", per_op "notifications");
      ("rmem.timeouts_per_op", per_op "timeouts");
      ("rmem.retries_per_op", per_op "retries");
      ("rmem.nacks_per_op", per_op "nacks");
    ]
    @ List.map
        (fun (name, _) ->
          ("cluster.server_cpu_us_per_op." ^ name, per_op ("server." ^ name)))
        cpu_categories
    @ groups @ e.layer @ post_metrics
    @
    match tr with
    | None -> []
    | Some tr -> Breakdown.analyze tr ~ops
  in
  (ops, !failed + post_failures, metrics, s)
