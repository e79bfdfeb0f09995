(* Cooperative simulation processes built on OCaml effects.

   A process is ordinary direct-style code; [wait] and [park] perform
   effects that the handler installed by [spawn] interprets against the
   engine's event queue.  Continuations are one-shot: a resume callback
   that fires a second time raises.

   Everything a process needs to handle its effects — its engine, its
   entry in the engine's waiter registry, the handler itself, the
   preallocated reply to [Wait] and the thunk that ends a wait — is
   built once at spawn.  [Wait] is a constant effect: [wait] leaves its
   span in a module-level int that the handler copies into the process.
   The reply stores the continuation in the process's [waiting] field
   and schedules the process's [wake], which continues it; so a wait
   allocates only the continuation.

   [waiting] is never cleared.  A continuation that has been resumed has
   given its stack back, so the stale one left in the field pins
   nothing.  Clearing it would cost more than it saves: [caml_modify]
   remembers a field only when its old value is not young, so writing a
   young continuation over the previous (usually still young) one adds
   no remembered-set entry, while writing it over a long-lived sentinel
   would add one on every wait.

   Blocking is one effect, [Park], which carries its own handler.  A
   [parking] is that handler, built once by whoever owns the queue a
   process blocks on ([Mailbox], [Resource]) or per call by
   [suspend_on].  It learns which process parked from [current]: the
   effect handler stores the process there just before returning the
   parking, the runtime calls the parking at once with the continuation,
   and the parking takes the process and clears the slot.  The slot only
   ever holds a long-lived process record, never a continuation, and
   holds it for no longer than that call.  A parked process is woken by
   a fresh thunk ([fun () -> continue k v]), since [v] is typed by the
   parking. *)

open Effect
open Effect.Deep

type t = {
  engine : Engine.t;
  waiter : Engine.waiter;
  mutable span : Time.t; (* the argument of the [Wait] being handled *)
  mutable resumes : int; (* bumped by every resume; a stale resume sees it moved *)
  mutable waiting : (unit, unit) continuation; (* the last [Wait]'s, never cleared *)
  wake : unit -> unit; (* continues [waiting] *)
  on_wait : ((unit, unit) continuation -> unit) option;
}

type 'a parking = (('a, unit) continuation -> unit) option

type _ Effect.t += Wait : unit Effect.t | Park : 'a parking -> 'a Effect.t

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

let create engine who =
  let rec p =
    {
      engine;
      waiter = Engine.waiter who;
      span = Time.zero;
      resumes = 0;
      waiting = spent;
      wake = (fun () -> continue p.waiting ());
      on_wait =
        Some
          (fun k ->
            p.waiting <- k;
            (* [schedule_at], not [schedule ~after]: passing the optional
               argument would box the span on every wait. *)
            Engine.schedule_at p.engine
              (Time.add (Engine.now p.engine) p.span)
              p.wake);
    }
  in
  p

(* The process that performed the [Park] being handled.  Between parks
   it holds [nobody], a process of an engine that never runs, so the
   slot is typed and pins no real process. *)
let nobody = create (Engine.create ()) (Engine.Text "nobody")
let current = ref nobody

let parked () =
  let p = !current in
  current := nobody;
  p

let resumer p k =
  let expected = p.resumes in
  fun v ->
    if p.resumes <> expected then invalid_arg "Proc: continuation resumed twice";
    p.resumes <- expected + 1;
    Engine.unblock p.waiter;
    Engine.schedule p.engine (fun () -> continue k v)

let parking ?(daemon = false) ~resource register =
  Some
    (fun k ->
      let p = parked () in
      Engine.block p.engine p.waiter ~resource ~daemon;
      register (resumer p k))

let park parking = perform (Park parking)

let suspend register =
  park (Some (fun k -> register (resumer (parked ()) k)))

let suspend_on ?daemon ~resource register =
  park (parking ?daemon ~resource register)

let finished () = ()
let failed exn = raise exn

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
        | Park parking ->
            current := p;
            parking
        | _ -> None);
  }

let spawn ?(after = Time.zero) ?name engine body =
  let who =
    match name with
    | Some name -> Engine.Text name
    | None -> Engine.Numbered ("proc", Engine.next_spawn_id engine)
  in
  let handler = handler (create engine who) in
  Engine.schedule ~after engine (fun () -> match_with body () handler)

let run engine body =
  let result = ref None in
  let failure = ref None in
  spawn ~name:"main" engine (fun () ->
      match body () with
      | v -> result := Some v
      | exception exn -> failure := Some exn);
  Engine.run engine;
  match (!result, !failure) with
  | Some v, _ -> v
  | None, Some exn -> raise exn
  | None, None ->
      raise (Engine.Deadlock (Engine.now engine, Engine.blocked engine))
