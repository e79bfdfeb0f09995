(* The span tracer.

   One global tracer slot, in the style of {!Cluster.Lrpc}'s monitor:
   the instrumented layers (rmem issue/serve paths, node dispatch, NIC,
   links, switch, notification delivery, LRPC, DFS clerks) call the
   hooks below unconditionally, and every hook's detached fast path is a
   single match on [None].  Nothing here consumes simulated time or CPU,
   so an attached tracer observes exactly the run a detached one would.

   Correlation across hops rides on {!Ctx}: the issue side allocates a
   trace id and a root span, hands each outbound frame a context naming
   that root, and the receiving side parents its serve/reply/notify
   spans under it.  Within a node, dispatch keeps the context of the
   frame currently being handled, so the serve path needs no signature
   changes to find it. *)

type t = {
  engine : Sim.Engine.t;
  registry : Registry.t option;
  mutable next_id : int;
  mutable spans : Span.t list; (* newest first *)
  by_id : (int, Span.t) Hashtbl.t;
  inbound : (int, Ctx.t) Hashtbl.t; (* node -> ctx of the frame in dispatch *)
  scopes : (int, Span.t list) Hashtbl.t; (* node -> enclosing span stack *)
  observed : (int, unit) Hashtbl.t; (* root ids already fed to the registry *)
  mutable finalized : bool;
}

let create ?registry engine =
  {
    engine;
    registry;
    next_id = 0;
    spans = [];
    by_id = Hashtbl.create 256;
    inbound = Hashtbl.create 8;
    scopes = Hashtbl.create 8;
    observed = Hashtbl.create 64;
    finalized = false;
  }

let current : t option ref = ref None
let attach t = current := Some t
let detach () = current := None
let enabled () = Option.is_some !current
let now t = Sim.Engine.now t.engine

let incr_counter t name =
  match t.registry with None -> () | Some r -> Registry.incr r name

(* ------------------------------------------------------------------ *)
(* Span primitives.                                                    *)

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let open_span t ~trace ~parent ~node ~name ~cat ~args =
  let id = fresh_id t in
  let trace = if trace = 0 then id else trace in
  let span =
    {
      Span.id;
      trace;
      parent;
      name;
      cat;
      node;
      start = now t;
      finish = now t;
      closed = false;
      args;
    }
  in
  t.spans <- span :: t.spans;
  Hashtbl.replace t.by_id id span;
  incr_counter t "spans";
  span

let close_span t span =
  if not span.Span.closed then begin
    span.Span.finish <- now t;
    span.Span.closed <- true
  end

let span_end_opt span =
  match (!current, span) with
  | Some t, Some span -> close_span t span
  | _ -> ()

(* Feed a finished root into the registry, once. *)
let observe_root t (span : Span.t) =
  match t.registry with
  | None -> ()
  | Some r ->
      if not (Hashtbl.mem t.observed span.id) then begin
        Hashtbl.replace t.observed span.id ();
        let seg =
          match Span.arg span "seg" with
          | Some s -> ( match int_of_string_opt s with Some n -> n | None -> -1)
          | None -> -1
        in
        Registry.observe r ~node:span.node ~seg ~op:span.name
          (Span.duration_us span)
      end

(* ------------------------------------------------------------------ *)
(* Scopes: user-level enclosing spans (clerk fetches, syscalls).       *)

type scope = { sc_t : t; sc_span : Span.t; sc_node : int }

let scope_top t ~node =
  match Hashtbl.find_opt t.scopes node with
  | Some (span :: _) -> Some span
  | _ -> None

let scoped_open t ~node ~name ~cat ~args =
  let trace, parent =
    match scope_top t ~node with
    | Some (enclosing : Span.t) -> (enclosing.trace, enclosing.id)
    | None -> (0, 0)
  in
  open_span t ~trace ~parent ~node ~name ~cat ~args

let scope_begin ~node ~name =
  match !current with
  | None -> None
  | Some t ->
      let span = scoped_open t ~node ~name ~cat:"scope" ~args:[] in
      let stack =
        match Hashtbl.find_opt t.scopes node with Some s -> s | None -> []
      in
      Hashtbl.replace t.scopes node (span :: stack);
      Some { sc_t = t; sc_span = span; sc_node = node }

let scope_end scope =
  match scope with
  | None -> ()
  | Some { sc_t = t; sc_span; sc_node } ->
      close_span t sc_span;
      (match Hashtbl.find_opt t.scopes sc_node with
      | Some (top :: rest) when top == sc_span ->
          Hashtbl.replace t.scopes sc_node rest
      | _ -> ());
      if Span.is_root sc_span then begin
        Hashtbl.replace t.observed sc_span.Span.id ();
        match t.registry with
        | Some r ->
            Registry.observe r ~node:sc_node ~seg:(-1) ~op:sc_span.Span.name
              (Span.duration_us sc_span)
        | None -> ()
      end

let scoped_begin ~node ~name ~cat =
  match !current with
  | None -> None
  | Some t -> Some (scoped_open t ~node ~name ~cat ~args:[])

let lrpc_begin ~node =
  match !current with
  | None -> None
  | Some t ->
      incr_counter t "lrpc calls";
      Some (scoped_open t ~node ~name:"lrpc" ~cat:"lrpc" ~args:[])

(* ------------------------------------------------------------------ *)
(* Issue side: one flow per meta-instruction.                          *)

type flow = { fl_t : t; fl_root : Span.t; mutable fl_phase : Span.t option }

let issue_begin ~node ~op ~seg ~off ~count =
  match !current with
  | None -> None
  | Some t ->
      let root =
        scoped_open t ~node ~name:op ~cat:"rmem"
          ~args:
            [
              ("seg", string_of_int seg);
              ("off", string_of_int off);
              ("count", string_of_int count);
            ]
      in
      incr_counter t ("ops:" ^ op);
      Some { fl_t = t; fl_root = root; fl_phase = None }

let phase_end flow =
  match flow with
  | None -> ()
  | Some fl -> (
      match fl.fl_phase with
      | None -> ()
      | Some span ->
          close_span fl.fl_t span;
          fl.fl_phase <- None)

let phase flow name =
  match flow with
  | None -> ()
  | Some fl ->
      phase_end flow;
      let span =
        open_span fl.fl_t ~trace:fl.fl_root.Span.trace
          ~parent:fl.fl_root.Span.id ~node:fl.fl_root.Span.node ~name
          ~cat:"cpu" ~args:[]
      in
      fl.fl_phase <- Some span

let wire_ctx flow =
  match flow with
  | None -> None
  | Some fl ->
      Some
        (Ctx.make ~trace:fl.fl_root.Span.trace ~parent:fl.fl_root.Span.id
           ~label:"wire")

(* ------------------------------------------------------------------ *)
(* Wire: frames, links, switch.  Called from [Atm].                    *)

let frame_sent ctx ~node =
  match (!current, ctx) with
  | Some t, Some (ctx : Ctx.t) ->
      let span =
        open_span t ~trace:ctx.trace ~parent:ctx.parent ~node ~name:ctx.label
          ~cat:"net" ~args:[]
      in
      ctx.wire <- span.Span.id;
      incr_counter t "frames"
  | _ -> ()

let frame_delivered ctx ~node:_ =
  match (!current, ctx) with
  | Some t, Some (ctx : Ctx.t) -> (
      match Hashtbl.find_opt t.by_id ctx.Ctx.wire with
      | Some span -> close_span t span
      | None -> ())
  | _ -> ()

let link_hop ctx ~name ~start ~finish =
  match (!current, ctx) with
  | Some t, Some (ctx : Ctx.t) ->
      let parent = if ctx.wire <> 0 then ctx.wire else ctx.parent in
      let id = fresh_id t in
      let span =
        {
          Span.id;
          trace = ctx.trace;
          parent;
          name;
          cat = "hop";
          node = -1;
          start;
          finish;
          closed = true;
          args = [];
        }
      in
      t.spans <- span :: t.spans;
      Hashtbl.replace t.by_id id span
  | _ -> ()

let dispatch_begin ~node ctx =
  match !current with
  | None -> ()
  | Some t -> (
      match ctx with
      | Some c -> Hashtbl.replace t.inbound node c
      | None -> Hashtbl.remove t.inbound node)

let dispatch_end ~node =
  match !current with
  | None -> ()
  | Some t -> Hashtbl.remove t.inbound node

(* ------------------------------------------------------------------ *)
(* Serve / reply side.                                                 *)

type serve = { sv_t : t; sv_ctx : Ctx.t; sv_span : Span.t }

let serve_begin ~node ~name =
  match !current with
  | None -> None
  | Some t -> (
      match Hashtbl.find_opt t.inbound node with
      | None -> None
      | Some ctx ->
          let span =
            open_span t ~trace:ctx.Ctx.trace ~parent:ctx.Ctx.parent ~node
              ~name ~cat:"serve" ~args:[]
          in
          Some { sv_t = t; sv_ctx = ctx; sv_span = span })

let serve_arg serve key value =
  match serve with
  | None -> ()
  | Some sv -> Span.set_arg sv.sv_span key value

let serve_end serve =
  match serve with None -> () | Some sv -> close_span sv.sv_t sv.sv_span

let serve_ctx serve ~label =
  match serve with
  | None -> None
  | Some sv ->
      Some
        (Ctx.make ~trace:sv.sv_ctx.Ctx.trace ~parent:sv.sv_ctx.Ctx.parent
           ~label)

let root_close serve ~status =
  match serve with
  | None -> ()
  | Some sv -> (
      match Hashtbl.find_opt sv.sv_t.by_id sv.sv_ctx.Ctx.parent with
      | Some root when not root.Span.closed ->
          if status <> "ok" then Span.set_arg root "status" status;
          close_span sv.sv_t root;
          observe_root sv.sv_t root
      | Some _ | None -> ())

(* Notification delivery spans: the post side hands us the context it
   captured, the delivery side closes the span after the 260 us charge. *)
let ctx_span_begin ctx ~node =
  match (!current, ctx) with
  | Some t, Some (ctx : Ctx.t) ->
      incr_counter t "notifications";
      Some
        (open_span t ~trace:ctx.trace ~parent:ctx.parent ~node ~name:ctx.label
           ~cat:"notify" ~args:[])
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Queries.                                                            *)

let spans t = List.rev t.spans
let find t id = Hashtbl.find_opt t.by_id id
let roots t = List.rev (List.filter Span.is_root t.spans)

let children t (span : Span.t) =
  List.filter (fun (s : Span.t) -> s.Span.parent = span.Span.id) (spans t)

let span_count t = List.length t.spans

(* Close every still-open span to the latest finish among its
   descendants (children appear later in time than their parents, so one
   newest-first pass sees each span's children already settled), then
   feed the late-closing roots (unacknowledged WRITEs) to the registry. *)
let finalize t =
  if t.finalized then ()
  else begin
  let kids = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      if s.Span.parent <> 0 then Hashtbl.add kids s.Span.parent s)
    t.spans;
  List.iter
    (fun (s : Span.t) ->
      if not s.Span.closed then begin
        let finish =
          List.fold_left
            (fun acc (c : Span.t) -> Sim.Time.max acc c.Span.finish)
            s.Span.start (Hashtbl.find_all kids s.Span.id)
        in
        s.Span.finish <- finish;
        s.Span.closed <- true
      end;
      if Span.is_root s then observe_root t s)
    t.spans;
  t.finalized <- true
  end

let phase_totals t (root : Span.t) =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (c : Span.t) ->
      let prev =
        match Hashtbl.find_opt totals c.Span.name with Some v -> v | None -> 0.
      in
      Hashtbl.replace totals c.Span.name (prev +. Span.duration_us c))
    (children t root);
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) totals []
  |> List.sort compare

(* Structural well-formedness: used by [bin/tracer --ci] and the tests. *)
let validate t =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if t.spans = [] then fail "empty trace";
  List.iter
    (fun (s : Span.t) ->
      if not s.Span.closed then fail "span %d (%s) left open" s.Span.id s.Span.name;
      if Sim.Time.( < ) s.Span.finish s.Span.start then
        fail "span %d (%s) ends before it starts" s.Span.id s.Span.name;
      if s.Span.parent <> 0 then
        match find t s.Span.parent with
        | None -> fail "span %d (%s) is an orphan" s.Span.id s.Span.name
        | Some p ->
            if p.Span.trace <> s.Span.trace then
              fail "span %d (%s) crosses traces" s.Span.id s.Span.name;
            if Sim.Time.( < ) s.Span.start p.Span.start then
              fail "span %d (%s) starts before its parent" s.Span.id
                s.Span.name)
    t.spans;
  match !problems with [] -> Ok () | ps -> Error (List.rev ps)
