(* Unbounded FIFO message queues with blocking receive. *)

type 'a t = {
  name : string;
  messages : 'a Queue.t;
  readers : ('a -> unit) Queue.t;
  parking : 'a Proc.parking; (* built once: NIC receive loops block per frame *)
}

let create ?(name = "mailbox") ?(daemon = false) () =
  let readers = Queue.create () in
  {
    name;
    messages = Queue.create ();
    readers;
    parking =
      Proc.parking ~daemon ~resource:(Engine.Quoted ("mailbox", name))
        (fun resume -> Queue.push resume readers);
  }

let name t = t.name

let length t = Queue.length t.messages

let is_empty t = Queue.is_empty t.messages

let send t msg =
  if Queue.is_empty t.readers then Queue.push msg t.messages
  else
    let resume = Queue.pop t.readers in
    resume msg

let recv t =
  if not (Queue.is_empty t.messages) then Queue.pop t.messages
  else
    Proc.park t.parking

let try_recv t =
  if Queue.is_empty t.messages then None else Some (Queue.pop t.messages)
