(* Outcome codes for remote memory operations. *)

type t =
  | Ok
  | Bad_segment
  | Protection
  | Bounds
  | Stale_generation
  | Write_inhibited
  | Unpinned
  | Timed_out

exception Remote_error of t
exception Timeout

let to_code = function
  | Ok -> 0
  | Bad_segment -> 1
  | Protection -> 2
  | Bounds -> 3
  | Stale_generation -> 4
  | Write_inhibited -> 5
  | Unpinned -> 6
  | Timed_out -> 7

let of_code = function
  | 0 -> Ok
  | 1 -> Bad_segment
  | 2 -> Protection
  | 3 -> Bounds
  | 4 -> Stale_generation
  | 5 -> Write_inhibited
  | 6 -> Unpinned
  | 7 -> Timed_out
  | c -> invalid_arg (Printf.sprintf "Status.of_code: %d" c)

let to_string = function
  | Ok -> "ok"
  | Bad_segment -> "bad segment"
  | Protection -> "protection violation"
  | Bounds -> "out of bounds"
  | Stale_generation -> "stale generation"
  | Write_inhibited -> "write inhibited"
  | Unpinned -> "unpinned page"
  | Timed_out -> "timed out"

let check = function
  | Ok -> ()
  | Timed_out -> raise Timeout
  | err -> raise (Remote_error err)

let () =
  Printexc.register_printer (function
    | Remote_error s -> Some (Printf.sprintf "Rmem.Status.Remote_error(%s)" (to_string s))
    | Timeout -> Some "Rmem.Status.Timeout"
    | _ -> None)
