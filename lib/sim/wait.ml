(* The parked process, or [Proc.nobody]. *)
type t = { mutable waiter : Proc.t }

let create () = { waiter = Proc.nobody }

let await t =
  if t.waiter != Proc.nobody then invalid_arg "Sim.Wait.park: already awaited";
  t.waiter <- Proc.self ()

let park ?(daemon = false) t ~resource =
  await t;
  Proc.park ~resource ~daemon

let hold t =
  await t;
  Proc.hold ()

let resume t =
  let p = t.waiter in
  t.waiter <- Proc.nobody;
  Proc.resume p

let unpark t =
  let p = t.waiter in
  if p != Proc.nobody then begin
    t.waiter <- Proc.nobody;
    Proc.unpark p
  end

let hand_over a b =
  if a.waiter == Proc.nobody then invalid_arg "Sim.Wait.hand_over: nobody waits";
  if b.waiter != Proc.nobody then invalid_arg "Sim.Wait.hand_over: already awaited";
  b.waiter <- a.waiter;
  a.waiter <- Proc.nobody
