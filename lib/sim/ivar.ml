(* Write-once synchronization variables. *)

type 'a state = Empty of ('a -> unit) list | Full of 'a

type 'a t = { name : string; mutable state : 'a state }

let create ?(name = "ivar") () = { name; state = Empty [] }

let name t = t.name

let is_full t = match t.state with Full _ -> true | Empty _ -> false

let peek t = match t.state with Full v -> Some v | Empty _ -> None

let fill t v =
  match t.state with
  | Full _ -> invalid_arg "Ivar.fill: already full"
  | Empty waiters -> (
      t.state <- Full v;
      (* Resume in registration order for determinism.  No reader or a
         single one, the usual cases, allocate no closure or list. *)
      match waiters with
      | [] -> ()
      | [ resume ] -> resume v
      | waiters -> List.iter (fun resume -> resume v) (List.rev waiters))

let try_fill t v =
  match t.state with
  | Full _ -> false
  | Empty _ ->
      fill t v;
      true

let read t =
  match t.state with
  | Full v -> v
  | Empty _ ->
      Proc.suspend_on
        ~resource:(Engine.Quoted ("ivar", t.name))
        (fun resume ->
          match t.state with
          | Full v -> resume v
          | Empty waiters -> t.state <- Empty (resume :: waiters))
