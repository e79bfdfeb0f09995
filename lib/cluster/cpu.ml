(* A node's processor: one charge at a time, in FIFO order, each
   consuming simulated time attributed to a named category: the raw
   material of the paper's Figure 3 (server CPU broken into data
   reception / control transfer / procedure invocation / data reply)
   and of the "50% server load" headline.

   There is one way to charge it: a charger.  [charge] takes the CPU if
   it is free and schedules the charger's prebuilt [finish] at the end
   of the span; otherwise the charger joins the FIFO, linked through its
   [slot], and the [finish] before it hands the CPU over by scheduling
   its [start] at that instant.  What a charge needs after its span (its
   category, span and next step, a top-level function applied to the
   charger's [arg]) waits in the charger's fields, so a charge allocates
   nothing.  A process's [use] charges a charger lent from the CPU's
   pool ([lend]), whose next step resumes it inline: the process parks
   once, with the events and instants of one that queued and then
   waited out its span. *)

type t = {
  engine : Sim.Engine.t;
  label : Sim.Engine.label; (* built once: a busy CPU is queued on per charge *)
  account : Metrics.Account.t;
  mutable busy : Sim.Time.t;
  mutable held : bool;
  mutable head : slot; (* the oldest queued charger's, or [none] *)
  mutable tail : slot; (* the newest queued one's, while [head] is not [none] *)
  uses : Sim.Wait.t chargers; (* lent to processes' [use]s *)
}

(* A charger's place in the FIFO: of one type whatever the charger's
   argument, so one FIFO links them all. *)
and slot = {
  mutable entry : Sim.Engine.waiter; (* blocked on the CPU while queued *)
  start : unit -> unit; (* begins the span, once the CPU is handed over *)
  mutable behind : slot; (* the next queued, or [none] *)
}

and 'a charger = {
  cpu : t;
  arg : 'a;
  slot : slot;
  finish : unit -> unit;
  mutable category : string;
  mutable span : Sim.Time.t;
  mutable next : 'a -> unit;
}

(* Chargers lent one charge each, a stack in [free.(0 .. top - 1)]. *)
and 'a chargers = {
  lcpu : t;
  who : Sim.Engine.label;
  mutable free : 'a charger array;
  mutable top : int;
}

(* Category names used across the system; keeping them here avoids
   spelling drift between producers and the experiments that read them. *)
let cat_data_reception = "data reception"
let cat_data_reply = "data reply"
let cat_control_transfer = "control transfer"
let cat_procedure = "procedure invocation"
let cat_emulation = "emulation"
let cat_client = "client"

let nobody = Sim.Engine.waiter (Sim.Engine.Text "nobody")
let rec none = { entry = nobody; start = ignore; behind = none }

let create ?(name = "cpu") engine =
  let account = Metrics.Account.create () in
  let rec t =
    { engine; label = Sim.Engine.Quoted ("resource", name); account;
      busy = Sim.Time.zero; held = false; head = none; tail = none;
      uses = { lcpu = t; who = Sim.Engine.Text "use"; free = [||]; top = 0 } }
  in
  t

let book t ~category span =
  t.busy <- Sim.Time.add t.busy span;
  Metrics.Account.add_us_of_ns t.account ~category (Sim.Time.to_ns span)

let begin_span c =
  Sim.Engine.schedule_at c.cpu.engine
    (Sim.Time.add (Sim.Engine.now c.cpu.engine) c.span)
    c.finish

(* The end of a span: hand the CPU to the oldest queued charger, whose
   span begins in an event of its own at this instant, or free it. *)
let release t =
  let s = t.head in
  if s == none then t.held <- false
  else begin
    t.head <- s.behind;
    Sim.Engine.unblock s.entry;
    Sim.Engine.schedule t.engine s.start
  end

let close c =
  book c.cpu ~category:c.category c.span;
  release c.cpu

let finish c =
  close c;
  c.next c.arg

let build t entry arg ended =
  let rec c =
    { cpu = t; arg; slot = { entry; start = (fun () -> begin_span c); behind = none };
      finish = (fun () -> ended c); category = cat_emulation;
      span = Sim.Time.zero; next = ignore }
  in
  c

let charger t who arg = build t (Sim.Engine.waiter who) arg finish

let charge c ~category span next =
  if span < 0 then invalid_arg "Cpu.charge: negative duration";
  c.category <- category;
  c.span <- span;
  c.next <- next;
  let t = c.cpu in
  if not t.held then begin
    t.held <- true;
    begin_span c
  end
  else begin
    let s = c.slot in
    Sim.Engine.block t.engine s.entry ~resource:t.label ~daemon:false;
    s.behind <- none;
    if t.head == none then t.head <- s else t.tail.behind <- s;
    t.tail <- s
  end

let chargers t who = { lcpu = t; who; free = [||]; top = 0 }

(* A lent charger's [finish]: back to [p] before [next], which may lend it. *)
let give_back p c =
  close c;
  if p.top = Array.length p.free then
    p.free <- Array.append p.free (Array.make (p.top + 4) c);
  p.free.(p.top) <- c;
  p.top <- p.top + 1;
  c.next c.arg

let take p make env =
  if p.top > 0 then begin
    p.top <- p.top - 1;
    p.free.(p.top)
  end
  else build p.lcpu (Sim.Engine.waiter p.who) (make env) (give_back p)

let lend p make env ~category span next =
  let c = take p make env in
  charge c ~category span next;
  c.arg

(* The process, named in the registry while its charger is queued, holds
   until the charger's next step resumes it.  A charger mostly serves
   the same process again, so its entry is written only when it changes:
   a pointer store into a long-lived record pays the write barrier. *)
let use t ~category span =
  if span < 0 then invalid_arg "Cpu.use: negative duration";
  let entry = Sim.Proc.entry (Sim.Proc.self ()) in
  let c = take t.uses Sim.Wait.create () in
  if c.slot.entry != entry then c.slot.entry <- entry;
  charge c ~category span Sim.Wait.resume;
  Sim.Wait.hold c.arg

let busy_time t = t.busy
let account t = t.account

let utilization t ~window =
  if Sim.Time.equal window Sim.Time.zero then 0.
  else Sim.Time.to_us t.busy /. Sim.Time.to_us window

let reset_accounting t =
  Metrics.Account.reset t.account;
  t.busy <- Sim.Time.zero
