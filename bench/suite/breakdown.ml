(* The traced run's per-layer breakdown, on both clocks.

   Sim clock: the existing span tracer follows every meta-instruction,
   and the runner opens one scope per client op, so spans nest under
   the op that caused them.  Every instant of a span is attributed to
   one part of the stack — the innermost (latest-started) descendant
   covering it — so the parts of a meta-instruction sum to it; the
   instants no span covers are the decomposition error.

   Host clock: each layer's public functions are replayed, outside the
   simulation, on inputs captured from the traced workload (frames seen
   by a link interposer that always delivers, and the queue depth the
   engine reached). *)

let capture_limit = 10_000

type t = {
  tracer : Obs.Trace.t;
  sampler : Obs.Timeseries.t;
  links : Atm.Link.t list;
  frames : (Atm.Addr.t * Atm.Addr.t * bytes) list ref;
}

let attach (rig : Loads.rig) =
  let engine = Cluster.Testbed.engine rig.testbed in
  let tracer = Obs.Trace.create engine in
  Obs.Trace.attach tracer;
  let sampler = Obs.Timeseries.create engine in
  let switches = Atm.Network.switches (Cluster.Testbed.network rig.testbed) in
  Obs.Timeseries.register sampler "pending" (fun () ->
      float_of_int (Sim.Engine.pending engine));
  Obs.Timeseries.register sampler "switch_queue" (fun () ->
      float_of_int
        (List.fold_left (fun m s -> max m (Atm.Switch.queue_depth s)) 0 switches));
  Obs.Timeseries.start sampler;
  let frames = ref [] and seen = ref 0 in
  let links = Loads.host_links rig in
  List.iter
    (fun l ->
      Atm.Link.set_interposer l
        (Some
           (fun f ->
             if !seen < capture_limit then begin
               incr seen;
               frames :=
                 (Atm.Frame.src f, Atm.Frame.dst f, Bytes.copy (Atm.Frame.payload f))
                 :: !frames
             end;
             Atm.Link.Deliver)))
    links;
  { tracer; sampler; links; frames }

let detach t =
  Obs.Trace.detach ();
  Obs.Timeseries.stop t.sampler;
  List.iter (fun l -> Atm.Link.set_interposer l None) t.links

(* ------------------------------------------------------------------ *)
(* Sim clock: span attribution.                                        *)

(* The part of the stack a span stands for; scopes only group. *)
let part_of parts (s : Obs.Span.t) =
  match s.cat with
  | "rmem" -> Some "rmem"
  | "cpu" -> Some s.name (* trap | nic *)
  | "net" -> Some (if s.name = "reply" || s.name = "nack" then "reply" else "wire")
  | "hop" -> (
      match Hashtbl.find_opt parts s.parent with
      | Some (Some "reply") -> Some "reply"
      | _ -> Some "wire")
  | "serve" -> Some (if s.name = "serve" then "serve" else "deliver")
  | "notify" -> Some "notify"
  | "lrpc" | "syscall" -> Some "lrpc"
  | _ -> None

let ns t = Sim.Time.to_ns t

(* Attribute every instant of [lo, hi) to the part of the innermost
   span covering it.  An instant no span covers while one of the flow's
   frames has arrived but not yet been dispatched is that frame waiting
   in the receiving NIC's FIFO for the node's dispatcher, which is busy
   on the CPU with earlier frames: a request waits for the serving CPU
   ("serve_wait"), a reply for the issuer's ("deliver").  Any other
   uncovered instant is reported under [None]. *)
let sweep ~lo ~hi spans =
  let clip t = max lo (min hi t) in
  let points =
    List.sort_uniq compare
      (lo :: hi
      :: List.concat_map (fun ((s : Obs.Span.t), _) -> [ clip (ns s.start); clip (ns s.finish) ]) spans)
  in
  let totals = Hashtbl.create 8 in
  let add part d =
    Hashtbl.replace totals part
      (d + Option.value ~default:0 (Hashtbl.find_opt totals part))
  in
  let rec walk = function
    | a :: (b :: _ as rest) ->
        let inner =
          List.fold_left
            (fun best ((s : Obs.Span.t), p) ->
              if ns s.start <= a && ns s.finish >= b then
                match best with
                | Some ((o : Obs.Span.t), _) when ns o.start > ns s.start -> best
                | Some ((o : Obs.Span.t), _) when ns o.start = ns s.start && o.id > s.id -> best
                | _ -> Some (s, p)
              else best)
            None spans
        in
        let part =
          match inner with
          | Some (_, p) -> Some p
          | None ->
              (* Frames delivered by [a] but not yet dispatched: every
                 request frame opens one serve span, every reply frame
                 one deliver span. *)
              let waiting net dispatch =
                List.fold_left
                  (fun n ((s : Obs.Span.t), p) ->
                    if p = net && s.cat = "net" && ns s.finish <= a then n + 1
                    else if p = dispatch && ns s.start <= a then n - 1
                    else n)
                  0 spans
                > 0
              in
              if waiting "reply" "deliver" then Some "deliver"
              else if waiting "wire" "serve" then Some "serve_wait"
              else None
        in
        add part (b - a);
        walk rest
    | _ -> ()
  in
  walk points;
  totals

let us_of totals part =
  float_of_int (Option.value ~default:0 (Hashtbl.find_opt totals part)) /. 1000.

let mean l = match l with [] -> 0. | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* The parts of a meta-instruction and the layer metric of each. *)
let root_parts =
  [
    ("rmem.trap_us", "trap");
    ("atm.nic_us", "nic");
    ("atm.wire_us", "wire");
    ("atm.reply_us", "reply");
    ("rmem.serve_us", "serve");
    ("rmem.deliver_us", "deliver");
    ("rmem.notify_us", "notify");
  ]

(* ------------------------------------------------------------------ *)
(* Host clock: replay of each layer's public functions.                *)

let replay t ~pending_peak =
  let frames = Array.of_list (List.rev !(t.frames)) in
  let payloads = Array.map (fun (_, _, p) -> p) frames in
  let rmem_msgs =
    Array.of_list
      (List.filter
         (fun p -> Bytes.length p > 0 && List.mem (Char.code (Bytes.get p 0)) Rmem.Wire.tags)
         (Array.to_list payloads))
  in
  let batch = 10_000 in
  let engine = Sim.Engine.create () in
  for _ = 1 to max 1 pending_peak do
    Sim.Engine.schedule ~after:(Sim.Time.sec 1_000) engine ignore
  done;
  let sim_ns, sim_words =
    Host.per_item ~items:batch (fun () ->
        for _ = 1 to batch do
          Sim.Engine.schedule engine ignore;
          ignore (Sim.Engine.step engine : bool)
        done)
  in
  let frame_ns, frame_words =
    Host.per_item ~items:(Array.length frames) (fun () ->
        Array.iter (fun (src, dst, p) -> ignore (Atm.Frame.make ~src ~dst p : Atm.Frame.t)) frames)
  in
  let msg_ns, msg_words =
    Host.per_item ~items:(Array.length rmem_msgs) (fun () ->
        Array.iter (fun p -> ignore (Rmem.Wire.encode (Rmem.Wire.decode p) : bytes)) rmem_msgs)
  in
  let space = Cluster.Address_space.create ~asid:1 () in
  let kb =
    max 1
      (Array.fold_left (fun acc p -> acc + Bytes.length p) 0 payloads / 1024)
  in
  let kb_ns, kb_words =
    Host.per_item ~items:kb (fun () ->
        Array.iter
          (fun p ->
            Cluster.Address_space.write space ~addr:0 p;
            ignore (Cluster.Address_space.read space ~addr:0 ~len:(Bytes.length p) : bytes))
          payloads)
  in
  let rmem_share =
    if Array.length frames = 0 then 0.
    else float_of_int (Array.length rmem_msgs) /. float_of_int (Array.length frames)
  in
  ( [
      ("sim.host_ns_per_event", sim_ns);
      ("sim.host_words_per_event", sim_words);
      ("atm.host_ns_per_frame", frame_ns);
      ("atm.host_words_per_frame", frame_words);
      ("rmem.host_ns_per_msg", msg_ns);
      ("rmem.host_words_per_msg", msg_words);
      ("cluster.host_ns_per_kb", kb_ns);
      ("cluster.host_words_per_kb", kb_words);
    ],
    rmem_share )

(* ------------------------------------------------------------------ *)

let analyze t ~ops =
  Obs.Trace.finalize t.tracer;
  let spans = Obs.Trace.spans t.tracer in
  let parts = Hashtbl.create 4096 and kids = Hashtbl.create 4096 in
  List.iter
    (fun (s : Obs.Span.t) ->
      Hashtbl.replace parts s.id (part_of parts s);
      if s.parent <> 0 then Hashtbl.add kids s.parent s)
    spans;
  let rec descendants acc (s : Obs.Span.t) =
    List.fold_left
      (fun acc c ->
        let acc = match Hashtbl.find parts c.Obs.Span.id with Some p -> (c, p) :: acc | None -> acc in
        descendants acc c)
      acc (Hashtbl.find_all kids s.id)
  in
  let roots = List.filter (fun (s : Obs.Span.t) -> s.cat = "rmem") spans in
  let per_root =
    List.map
      (fun (r : Obs.Span.t) ->
        let totals = sweep ~lo:(ns r.start) ~hi:(ns r.finish) (descendants [] r) in
        let dur = Obs.Span.duration_us r in
        (totals, if dur > 0. then us_of totals None /. dur else 0.))
      roots
  in
  let ops_scopes =
    List.filter (fun (s : Obs.Span.t) -> s.cat = "scope" && s.name = "op" && s.parent = 0) spans
  in
  let per_op =
    List.map
      (fun (s : Obs.Span.t) ->
        let totals = sweep ~lo:(ns s.start) ~hi:(ns s.finish) (descendants [] s) in
        (us_of totals None, us_of totals (Some "lrpc")))
      ops_scopes
  in
  let lrpc_calls = List.length (List.filter (fun (s : Obs.Span.t) -> s.cat = "lrpc") spans) in
  let stat name f =
    match Obs.Timeseries.stat t.sampler name with Some s -> f s | None -> 0.
  in
  let pending_peak = stat "pending" (fun s -> s.max) in
  let host, rmem_share = replay t ~pending_peak:(int_of_float pending_peak) in
  let fops = float_of_int ops in
  List.map
    (fun (metric, part) ->
      (metric, mean (List.map (fun (totals, _) -> us_of totals (Some part)) per_root)))
    root_parts
  @ [
      ("sim.pending_peak", pending_peak);
      ("atm.switch_queue_max", stat "switch_queue" (fun s -> s.max));
      ( "rmem.serve_wait_us_per_op",
        List.fold_left (fun acc (totals, _) -> acc +. us_of totals (Some "serve_wait")) 0. per_root
        /. fops );
      ("cluster.lrpc_per_op", float_of_int lrpc_calls /. fops);
      ("cluster.lrpc_us", mean (List.map snd per_op));
      ("amsg.unattributed_us", mean (List.map fst per_op));
      ("obs.spans_per_op", float_of_int (Obs.Trace.span_count t.tracer) /. fops);
      ( "obs.decompose_err_max",
        List.fold_left (fun m (_, err) -> Float.max m err) 0. per_root );
      ("rmem_frame_share", rmem_share);
    ]
  @ host
