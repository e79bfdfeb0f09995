(* Write-once synchronization variables. *)

type 'a state = Empty | Full of 'a

(* Readers that find the ivar empty sleep on [readers]; each reads the
   value from the ivar once woken. *)
type 'a t = {
  name : string;
  mutable state : 'a state;
  readers : unit Proc.sleepers;
}

let create ?(name = "ivar") () =
  { name; state = Empty; readers = Proc.sleepers () }

let is_full t = match t.state with Full _ -> true | Empty -> false

let fill t v =
  match t.state with
  | Full _ -> invalid_arg "Ivar.fill: already full"
  | Empty ->
      t.state <- Full v;
      (* Wake in blocking order for determinism. *)
      while not (Proc.is_empty t.readers) do
        Proc.signal t.readers
      done

let try_fill t v =
  match t.state with
  | Full _ -> false
  | Empty ->
      fill t v;
      true

let read t =
  match t.state with
  | Full v -> v
  | Empty -> (
      Proc.sleep t.readers
        ~resource:(Engine.Quoted ("ivar", t.name))
        ~daemon:false;
      match t.state with Full v -> v | Empty -> assert false)
