(* Unbounded FIFO message queues with blocking receive. *)

type 'a t = {
  messages : 'a Queue.t;
  readers : 'a Proc.sleepers;
  label : Engine.label; (* built once: NIC receive loops block per frame *)
  daemon : bool;
}

let create ?(name = "mailbox") ?(daemon = false) () =
  {
    messages = Queue.create ();
    readers = Proc.sleepers ();
    label = Engine.Quoted ("mailbox", name);
    daemon;
  }

let send t msg =
  if Proc.is_empty t.readers then Queue.push msg t.messages
  else Proc.wake t.readers msg

let recv t =
  if not (Queue.is_empty t.messages) then Queue.pop t.messages
  else Proc.sleep t.readers ~resource:t.label ~daemon:t.daemon

