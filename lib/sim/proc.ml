(* Cooperative simulation processes built on OCaml effects.

   A process is ordinary direct-style code; [wait] and [suspend] perform
   effects that the scheduler installed by [spawn] interprets against the
   engine's event queue.  Continuations are one-shot: [suspend]'s resume
   callback guards against double resumption.

   Every process carries a name and knows its engine (the [Info]
   effect); [suspend_on] uses both to register the blocked process with
   the engine's waiter registry, which is what makes engine-level
   deadlock reports name processes and resources. *)

open Effect
open Effect.Deep

type _ Effect.t +=
  | Wait : Time.t -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Info : (Engine.t * Engine.label) Effect.t

let wait span = perform (Wait span)

let yield () = perform (Wait Time.zero)

let suspend register = perform (Suspend register)

let suspend_on ?(daemon = false) ~resource register =
  match perform Info with
  | exception Effect.Unhandled _ -> suspend register
  | engine, process ->
      let token = Engine.register_blocked engine ~process ~resource ~daemon in
      suspend (fun resume ->
          register (fun v ->
              Engine.clear_blocked engine token;
              resume v))

let spawn ?(after = Time.zero) ?name engine body =
  let name =
    match name with
    | Some name -> Engine.Text name
    | None -> Engine.Numbered ("proc", Engine.next_spawn_id engine)
  in
  let run () =
    match_with body ()
      {
        retc = (fun () -> ());
        exnc = (fun exn -> raise exn);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Wait span ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    Engine.schedule ~after:span engine (fun () ->
                        continue k ()))
            | Suspend register ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let resumed = ref false in
                    let resume v =
                      if !resumed then
                        invalid_arg "Proc: continuation resumed twice";
                      resumed := true;
                      Engine.schedule engine (fun () -> continue k v)
                    in
                    register resume)
            | Info ->
                Some
                  (fun (k : (a, unit) continuation) -> continue k (engine, name))
            | _ -> None);
      }
  in
  Engine.schedule ~after engine run

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
