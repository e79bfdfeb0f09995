(* Cooperative simulation processes built on OCaml effects.

   A process is ordinary direct-style code; [wait] and [suspend] perform
   effects that the handler installed by [spawn] interprets against the
   engine's event queue.  Continuations are one-shot: a resume callback
   that fires a second time raises.

   Everything a process needs to handle its effects — its engine, its
   entry in the engine's waiter registry, the handler itself and the
   preallocated reply to [Wait] — is built once at spawn, so a wait
   allocates only the effect, the continuation and the thunk that
   resumes it.  [suspend_on] is a single effect: the handler already
   knows the process's waiter and links it into the registry, which is
   what makes engine-level deadlock reports name processes and
   resources.

   Wake thunks ([fun () -> continue k v]) are deliberately fresh young
   allocations rather than fields of the long-lived process record:
   storing a young continuation into a promoted record pays the write
   barrier on every wake, which measured slower on host CPU than
   allocating the small closure. *)

open Effect
open Effect.Deep

type _ Effect.t +=
  | Wait : Time.t -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Suspend_on : Engine.label * bool * (('a -> unit) -> unit) -> 'a Effect.t

type t = {
  engine : Engine.t;
  waiter : Engine.waiter;
  mutable span : Time.t; (* the argument of the [Wait] being handled *)
  mutable resumes : int; (* bumped by every resume; a stale resume sees it moved *)
  on_wait : ((unit, unit) continuation -> unit) option;
}

let wait span = perform (Wait span)

let yield () = perform (Wait Time.zero)

let suspend register = perform (Suspend register)

let suspend_on ?(daemon = false) ~resource register =
  perform (Suspend_on (resource, daemon, register))

let create engine who =
  let rec p =
    {
      engine;
      waiter = Engine.waiter who;
      span = Time.zero;
      resumes = 0;
      on_wait =
        Some
          (fun k ->
            (* [schedule_at], not [schedule ~after]: passing the optional
               argument would box the span on every wait. *)
            Engine.schedule_at p.engine
              (Time.add (Engine.now p.engine) p.span)
              (fun () -> continue k ()));
    }
  in
  p

let resumer p k =
  let expected = p.resumes in
  fun v ->
    if p.resumes <> expected then invalid_arg "Proc: continuation resumed twice";
    p.resumes <- expected + 1;
    Engine.unblock p.waiter;
    Engine.schedule p.engine (fun () -> continue k v)

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
        | Wait span ->
            p.span <- span;
            p.on_wait
        | Suspend register ->
            Some (fun k -> register (resumer p k))
        | Suspend_on (resource, daemon, register) ->
            Some
              (fun k ->
                Engine.block p.engine p.waiter ~resource ~daemon;
                register (resumer p k))
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
