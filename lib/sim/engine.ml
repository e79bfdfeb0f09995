(* The discrete-event engine: a clock plus an ordered queue of thunks.

   With no scheduler installed, firing an event is one queue call:
   [Heap.take_min] removes the next due event and records its time and
   seq in the queue's [taken] record, which the engine reads in place.

   Two additions ride on the basic loop:

   - a registry of blocked waiters (filled in by [Proc.sleep] and
     [Proc.park], the ways Ivar, Mailbox, Resource, the NIC and every
     other queue block a process)
     so that a drained queue with live waiters is recognized as a
     deadlock and reported by name;
   - a pluggable same-instant scheduler: when more than one event is
     enabled at the next instant, an installed scheduler picks which
     fires first.  With no scheduler installed the engine keeps its
     historical FIFO order (ascending sequence number), so default runs
     are bit-identical to the pre-scheduler engine. *)

type blocked = {
  process : string;
  resource : string;
  since : Time.t;
}

(* What a waiter is and what it waits on, kept unformatted: waits and
   spawns are hot, and only a blocked-waiter listing reads the text. *)
type label = Text of string | Quoted of string * string | Numbered of string * int

let label_to_string = function
  | Text s -> s
  | Quoted (kind, name) -> Printf.sprintf "%s %S" kind name
  | Numbered (prefix, n) -> prefix ^ string_of_int n

(* One per process, built at spawn.  While the process is blocked its
   waiter is linked into the engine's circular registry, in blocking
   order; unlinked, it points at itself.  Blocking and waking only
   rewrite these fields. *)
type waiter = {
  who : label;
  mutable what : label;
  mutable is_daemon : bool;
  mutable blocked_at : Time.t;
  mutable prev : waiter;
  mutable next : waiter;
}

exception Deadlock of Time.t * blocked list

type choice = { at : Time.t; enabled : int list }
type scheduler = choice -> int

type t = {
  mutable now : Time.t;
  queue : (unit -> unit) Heap.t;
  taken : Heap.key; (* the queue's record of the event it last took *)
  mutable seq : int;
  mutable stopped : bool;
  mutable scheduler : scheduler option;
  registry : waiter; (* sentinel of the blocked-waiter ring *)
  mutable detect_deadlock : bool;
  mutable spawns : int;
  mutable fired : int; (* events executed since [create] *)
  mutable firing : int; (* seq of the event being fired, -1 outside [fire] *)
  mutable track_parents : bool;
  parents : (int, int) Hashtbl.t; (* event seq -> scheduling event's seq *)
}

let waiter who =
  let rec w =
    {
      who;
      what = who;
      is_daemon = false;
      blocked_at = Time.zero;
      prev = w;
      next = w;
    }
  in
  w

let create () =
  let queue = Heap.create ~dummy:ignore () in
  {
    now = Time.zero;
    queue;
    taken = Heap.taken queue;
    seq = 0;
    stopped = false;
    scheduler = None;
    registry = waiter (Text "");
    detect_deadlock = true;
    spawns = 0;
    fired = 0;
    firing = -1;
    track_parents = false;
    parents = Hashtbl.create 64;
  }

let now t = t.now

let pending t = Heap.length t.queue
let events_fired t = t.fired

let schedule_at t time thunk =
  if Time.(time < t.now) then
    invalid_arg "Engine.schedule_at: event in the past";
  Heap.push t.queue ~time ~seq:t.seq thunk;
  if t.track_parents && t.firing >= 0 then
    Hashtbl.replace t.parents t.seq t.firing;
  t.seq <- t.seq + 1

let schedule ?(after = Time.zero) t thunk =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t (Time.add t.now after) thunk

let stop t = t.stopped <- true

let next_spawn_id t =
  let id = t.spawns in
  t.spawns <- t.spawns + 1;
  id

(* ---------------- Blocked-waiter registry ---------------- *)

let block t w ~resource ~daemon =
  w.what <- resource;
  w.is_daemon <- daemon;
  w.blocked_at <- t.now;
  let last = t.registry.prev in
  w.prev <- last;
  w.next <- t.registry;
  last.next <- w;
  t.registry.prev <- w

let unblock w =
  w.prev.next <- w.next;
  w.next.prev <- w.prev;
  w.prev <- w;
  w.next <- w

let blocked t =
  let rec collect w acc =
    if w == t.registry then List.rev acc
    else
      let acc =
        if not w.is_daemon then
          {
            process = label_to_string w.who;
            resource = label_to_string w.what;
            since = w.blocked_at;
          }
          :: acc
        else acc
      in
      collect w.next acc
  in
  collect t.registry.next []

let describe_blocked b =
  Printf.sprintf "%s blocked on %s since %s" b.process b.resource
    (Time.to_string b.since)

let deadlock_report bs =
  match bs with
  | [] -> "deadlock: queue drained with no registered waiters"
  | bs ->
      "deadlock: "
      ^ String.concat "; " (List.map describe_blocked bs)

let set_deadlock_detection t on = t.detect_deadlock <- on

(* ---------------- Stepping ---------------- *)

(* A match rather than [Fun.protect], whose [finally] closure would be
   allocated on every event. *)
let fire t ~time ~seq thunk =
  t.now <- time;
  t.fired <- t.fired + 1;
  let previous = t.firing in
  t.firing <- seq;
  match thunk () with
  | () -> t.firing <- previous
  | exception exn ->
      t.firing <- previous;
      raise exn

let set_parent_tracking t on = t.track_parents <- on
let parent t seq = Hashtbl.find_opt t.parents seq

let next_enabled t =
  match Heap.entries_at_min t.queue with
  | [] -> None
  | entries ->
      Some
        {
          at = (List.hd entries).Heap.time;
          enabled = List.map (fun e -> e.Heap.seq) entries;
        }

let step_seq t seq =
  match Heap.entries_at_min t.queue with
  | [] -> false
  | entries ->
      if not (List.exists (fun e -> e.Heap.seq = seq) entries) then
        invalid_arg "Engine.step_seq: event not enabled at the next instant";
      (match Heap.remove t.queue ~seq with
      | Some { Heap.time; seq; payload } -> fire t ~time ~seq payload
      | None -> assert false);
      true

(* Fire the next event if its time is at most [until]; [false] if there
   is none. *)
let advance t ~until =
  match t.scheduler with
  | None ->
      let thunk = Heap.take_min t.queue ~until in
      let taken = t.taken in
      taken.key_seq >= 0
      && begin
           fire t ~time:taken.key_time ~seq:taken.key_seq thunk;
           true
         end
  | Some choose -> (
      match next_enabled t with
      | Some choice when Time.(choice.at <= until) -> (
          match choice.enabled with
          | [ seq ] -> step_seq t seq
          | enabled ->
              let seq = choose choice in
              if not (List.mem seq enabled) then
                invalid_arg "Engine.step: scheduler chose a non-enabled event";
              step_seq t seq)
      | _ -> false)

let step t = advance t ~until:max_int

let set_scheduler t scheduler = t.scheduler <- scheduler

(* A non-daemon waiter from [w] to the registry's [sentinel]: top level,
   so an idle [run] allocates no closure. *)
let rec nondaemon_from sentinel w =
  w != sentinel && ((not w.is_daemon) || nondaemon_from sentinel w.next)

let run ?until t =
  t.stopped <- false;
  let limit = Option.value until ~default:max_int in
  while (not t.stopped) && advance t ~until:limit do
    ()
  done;
  match until with
  | Some limit ->
      if (not t.stopped) && Time.(t.now < limit) then t.now <- limit
  | None ->
      (* The queue drained for good: if detection is on and somebody is
         still blocked on a non-daemon resource, nothing can ever wake
         them — report who waits on what. *)
      if
        t.detect_deadlock
        && (not t.stopped)
        && Heap.is_empty t.queue
        && nondaemon_from t.registry t.registry.next
      then raise (Deadlock (t.now, blocked t))
