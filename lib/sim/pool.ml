(* Reusable processes.  A worker runs its job, pushes itself on its
   pool's idle stack and parks as a daemon; [post] pops the most
   recently idle worker, hands it the job and unparks it, or spawns a
   new worker when none is idle.  A worker taken off the stack is
   running or about to run, so one that raises is simply gone.

   The idle stack is an array, so parking and posting allocate nothing:
   a list would add a cell per park. *)

type ('a, 'b) worker = {
  mutable job : 'a -> 'b -> unit;
  mutable a : 'a;
  mutable b : 'b;
  mutable proc : Proc.t;
}

type ('a, 'b) t = {
  engine : Engine.t;
  name : string;
  mutable idle : ('a, 'b) worker array;
  mutable idles : int;
}

let create engine ~name = { engine; name; idle = [||]; idles = 0 }

let idling = Engine.Text "idle"

let push pool w =
  if pool.idles = Array.length pool.idle then begin
    let grown = Array.make (Int.max 4 (2 * pool.idles)) w in
    Array.blit pool.idle 0 grown 0 pool.idles;
    pool.idle <- grown
  end;
  pool.idle.(pool.idles) <- w;
  pool.idles <- pool.idles + 1

let rec serve pool w =
  w.job w.a w.b;
  push pool w;
  Proc.park ~resource:idling ~daemon:true;
  serve pool w

let post pool job a b =
  if pool.idles > 0 then begin
    pool.idles <- pool.idles - 1;
    let w = pool.idle.(pool.idles) in
    w.job <- job;
    w.a <- a;
    w.b <- b;
    Proc.unpark w.proc
  end
  else
    let w = { job; a; b; proc = Proc.nobody } in
    Proc.spawn ~name:pool.name pool.engine (fun () ->
        w.proc <- Proc.self ();
        serve pool w)
