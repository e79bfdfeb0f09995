(* Cooperative simulation processes built on OCaml effects.

   A process is ordinary direct-style code; [wait] and [sleep] perform
   effects that the handler installed by [spawn] interprets against the
   engine's event queue.

   Everything a process needs to handle its effects — its engine, its
   entry in the engine's waiter registry, the handler itself, the
   preallocated replies and the thunk that ends a wait or a sleep — is
   built once at spawn.  Every effect is a constant: [wait] leaves its
   span in a module-level int that the handler copies into the process.

   There is one way to stop: the reply stores the continuation in the
   process's [waiting] field, and the process's prebuilt [wake] continues
   it.  A [Wait] schedules [wake] itself, after the span; a [Sleep]
   leaves that to whoever takes the process off its [sleepers] queue,
   or unparks it.

   [waiting] is never cleared.  A continuation that has been resumed has
   given its stack back, so the stale one left in the field pins
   nothing.  Clearing it would cost more than it saves: [caml_modify]
   remembers a field only when its old value is not young, so writing a
   young continuation over the previous (usually still young) one adds
   no remembered-set entry, while writing it over a long-lived sentinel
   would add one on every wait.

   The running process is kept in a register, [current]: every resume
   sets it, and every way a process stops (a [Wait] or [Sleep] reply, a
   return, an exception) puts [nobody] back, so a resume is a tail call.
   A resume nested in another process's run (a nested [Engine.run])
   puts that process back itself once it returns.  A sleeper reads the
   register to name itself, which costs nothing; outside every process
   it holds [nobody], and a sleep raises the runtime's unhandled-effect
   exception before it touches any queue.

   A [sleepers] queue holds one node per sleep, and a wake takes the
   oldest node off: each node is woken once, and the value handed to it
   is kept in the node, so a woken process reads exactly what its waker
   gave it, whatever order same-instant wakes fire in.  A wait with one
   consumer needs no queue: the waiter [park]s, and whoever holds its
   process [unpark]s it. *)

open Effect
open Effect.Deep

type t = {
  engine : Engine.t;
  waiter : Engine.waiter;
  mutable span : Time.t; (* the argument of the [Wait] being handled *)
  mutable waiting : (unit, unit) continuation; (* never cleared *)
  mutable parked : bool; (* in [park], until [unpark] *)
  wake : unit -> unit; (* resumes [waiting] *)
  on_wait : ((unit, unit) continuation -> unit) option;
  on_sleep : ((unit, unit) continuation -> unit) option;
  mutable spinner : spinner option; (* built by the process's first [spin] *)
}

(* A process's running [spin]: its condition, period, deadline and
   outcome, and the callback that polls it, built once per process. *)
and spinner = {
  mutable ready : unit -> bool;
  mutable every : Time.t;
  mutable deadline : Time.t;
  mutable arrived : bool;
  poll : unit -> unit;
}

type _ Effect.t += Wait : unit Effect.t | Sleep : unit Effect.t

(* The span of the [Wait] being performed: an int, so storing it pays no
   write barrier, and the effect itself is a constant. *)
let wait_span = ref Time.zero

let wait span =
  wait_span := span;
  perform Wait

let yield () = wait Time.zero

(* A continuation that has already run to completion: the initial value
   of every process's [waiting], typed without [Obj].  Resuming it
   raises, and it holds no stack. *)
let spent =
  let captured : (unit, unit) continuation option ref = ref None in
  match_with perform Wait
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Wait -> Some (fun k -> captured := Some k)
          | _ -> None);
    };
  match !captured with
  | Some k ->
      continue k ();
      k
  | None -> assert false

(* The running process, or [nobody] outside every process. *)
let nobody =
  {
    engine = Engine.create ();
    waiter = Engine.waiter (Engine.Text "nobody");
    span = Time.zero;
    waiting = spent;
    parked = false;
    wake = ignore;
    on_wait = None;
    on_sleep = None;
    spinner = None;
  }

let current = ref nobody

(* Run [f x] as process [p], until [p] stops again: the register names
   [p] meanwhile, and whoever was running before once it stops.  Every
   way to stop — a [Wait] or [Sleep] reply, a return, an exception —
   puts [nobody] back, so when nobody was running before, [f x] is a
   tail call; only a resume nested in another process's run puts that
   process back itself. *)
let as_current p f x =
  let previous = !current in
  current := p;
  if previous == nobody then f x
  else
    match f x with
    | () -> current := previous
    | exception exn ->
        current := previous;
        raise exn

let continue_waiting p = continue p.waiting ()

(* One poll of [p]'s spin [s]: resume [p] inline if its condition holds
   or the clock is past its deadline, else poll again [every] later. *)
let poll p s =
  let now = Engine.now p.engine in
  if s.ready () then begin
    s.arrived <- true;
    as_current p continue_waiting p
  end
  else if Time.(now > s.deadline) then as_current p continue_waiting p
  else Engine.schedule_at p.engine (Time.add now s.every) s.poll

let self () =
  let p = !current in
  if p == nobody then raise (Unhandled Sleep);
  p

let create engine who =
  let rec p =
    {
      engine;
      waiter = Engine.waiter who;
      span = Time.zero;
      waiting = spent;
      parked = false;
      wake = (fun () -> as_current p continue_waiting p);
      on_wait =
        Some
          (fun k ->
            current := nobody;
            p.waiting <- k;
            (* [schedule_at], not [schedule ~after]: passing the optional
               argument would box the span on every wait. *)
            Engine.schedule_at p.engine
              (Time.add (Engine.now p.engine) p.span)
              p.wake);
      on_sleep =
        Some
          (fun k ->
            current := nobody;
            p.waiting <- k);
      spinner = None;
    }
  in
  p

(* A waiter that is not a fiber: it never performs an effect, so it
   needs no handler, and its [wake] is the callback itself. *)
let callback engine who wake =
  { nobody with engine; waiter = Engine.waiter who; wake }

(* ---------------- Sleeping ---------------- *)

(* One node per sleep, linked oldest first.  A wake takes the node off
   the queue, after which its link is dead, and stores the value it
   hands over in that same field: a node is [Sleeper] with a [next]
   while it sleeps and [Sleeper] with [Handed v] once woken.  A queue of
   unit sleepers is woken with the one shared [handed_unit].

   By the old-value rule no field is ever cleared.  When the last
   sleeper is woken it stays [oldest] (and [newest]), so a queue is
   empty when [oldest] is a woken node or [Nil], before the first
   sleep; the next sleeper's node is then written young over young. *)
type 'a node =
  | Nil
  | Sleeper of { proc : t; mutable next : 'a node }
  | Handed of 'a

type 'a sleepers = { mutable oldest : 'a node; mutable newest : 'a node }

let handed_unit : unit node = Handed ()

let sleepers () = { oldest = Nil; newest = Nil }

let is_empty q =
  match q.oldest with
  | Sleeper { next = Nil | Sleeper _; _ } -> false
  | Sleeper { next = Handed _; _ } | Nil | Handed _ -> true

(* Link [p] in at the tail of [q], blocked on [resource]: its node. *)
let join q p ~resource ~daemon =
  Engine.block p.engine p.waiter ~resource ~daemon;
  let node = Sleeper { proc = p; next = Nil } in
  (if is_empty q then q.oldest <- node
   else
     match q.newest with
     | Sleeper last -> last.next <- node
     | Nil | Handed _ -> assert false (* a non-empty queue's newest sleeps *));
  q.newest <- node;
  node

let sleep q ~resource ~daemon =
  let node = join q (self ()) ~resource ~daemon in
  perform Sleep;
  match node with
  | Sleeper { next = Handed v; _ } -> v
  | Sleeper _ | Nil | Handed _ -> assert false

let enqueue q p ~resource ~daemon = ignore (join q p ~resource ~daemon : unit node)

let hand q handed =
  match q.oldest with
  | Sleeper ({ next = Nil | Sleeper _; _ } as s) ->
      (match s.next with
      | Sleeper _ as next -> q.oldest <- next
      | Nil | Handed _ -> ());
      s.next <- handed;
      Engine.unblock s.proc.waiter;
      Engine.schedule s.proc.engine s.proc.wake
  | Sleeper { next = Handed _; _ } | Nil | Handed _ ->
      invalid_arg "Proc: continuation resumed twice"

let wake q v = hand q (Handed v)
let signal q = hand q handed_unit

(* ---------------- Parking ---------------- *)

let listen p ~resource ~daemon =
  Engine.block p.engine p.waiter ~resource ~daemon;
  p.parked <- true

let park ~resource ~daemon =
  listen (self ()) ~resource ~daemon;
  perform Sleep

let unparked p what =
  if not p.parked then invalid_arg what;
  p.parked <- false;
  Engine.unblock p.waiter

let unpark p =
  unparked p "Proc.unpark: not parked";
  Engine.schedule p.engine p.wake

let resume p =
  unparked p "Proc.resume: not parked";
  p.wake ()

(* ---------------- Spinning ---------------- *)

(* The process sleeps once, and its spinner's [poll] polls for it at
   exactly the instants a [wait every] loop would wake, re-arming itself
   the way that loop's [on_wait] re-arms [wake], and resumes the process
   inline, in the poll event that finds [ready] or the deadline passed.
   So a spin fires the loop's events, at its instants and in its
   same-instant order, and allocates nothing per poll.  The callback is
   built once per process, so a long-lived process's is long-lived: one
   built per spin would be young, and writing it into the queue's
   long-lived payload array on every poll would add a remembered-set
   entry per poll.  Unlike a park the spin registers no block: a poll is
   always pending, as a waiting process's wake was. *)
let spinner p ready =
  match p.spinner with
  | Some s -> s
  | None ->
      let rec s =
        { ready; every = Time.zero; deadline = Time.zero; arrived = false;
          poll = (fun () -> poll p s) }
      in
      p.spinner <- Some s;
      s

let spin ~every ~deadline ready =
  let p = self () in
  ready ()
  || Time.(Engine.now p.engine <= deadline)
     &&
     let s = spinner p ready in
     s.ready <- ready;
     s.every <- every;
     s.deadline <- deadline;
     s.arrived <- false;
     Engine.schedule_at p.engine (Time.add (Engine.now p.engine) every) s.poll;
     perform Sleep;
     s.arrived

let finished () = current := nobody

let failed exn =
  current := nobody;
  raise exn

let handler p =
  {
    retc = finished;
    exnc = failed;
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) continuation -> unit) option ->
        match eff with
        | Wait ->
            p.span <- !wait_span;
            p.on_wait
        | Sleep -> p.on_sleep
        | _ -> None);
  }

let spawn ?(after = Time.zero) ?name engine body =
  let who =
    match name with
    | Some name -> Engine.Text name
    | None -> Engine.Numbered ("proc", Engine.next_spawn_id engine)
  in
  let p = create engine who in
  let handler = handler p in
  Engine.schedule_at engine
    (Time.add (Engine.now engine) after)
    (fun () -> as_current p (fun () -> match_with body () handler) ())

let run engine body =
  let result = ref None in
  let failure = ref None in
  spawn ~name:"main" engine (fun () ->
      match body () with
      | v -> result := Some v
      | exception exn -> failure := Some exn);
  (* A body that failed explains the run better than the waiters it
     left blocked behind it. *)
  (match Engine.run engine with
  | () -> ()
  | exception (Engine.Deadlock _ as deadlock) ->
      if Option.is_none !failure then raise deadlock);
  match (!result, !failure) with
  | Some v, _ -> v
  | None, Some exn -> raise exn
  | None, None ->
      raise (Engine.Deadlock (Engine.now engine, Engine.blocked engine))
