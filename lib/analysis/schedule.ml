(* Compact schedule certificates.

   A run is fully determined by what the explorer picked at each
   same-instant choice point: the index into the FIFO-ordered enabled
   list.  The enabled count rides along so a certificate can be sanity
   checked against the run it directs — a replay that sees a different
   enabled count diverged from the certified execution. *)

type decision = { index : int; count : int }
type t = decision list

let empty = []
let length = List.length

let to_string = function
  | [] -> "-"
  | t ->
      String.concat ","
        (List.map (fun d -> Printf.sprintf "%d/%d" d.index d.count) t)

let of_string s =
  let s = String.trim s in
  if s = "" || s = "-" then []
  else
    String.split_on_char ',' s
    |> List.map (fun part ->
           match String.split_on_char '/' (String.trim part) with
           | [ index; count ] -> (
               match (int_of_string_opt index, int_of_string_opt count) with
               | Some index, Some count
                 when count >= 2 && index >= 0 && index < count ->
                   { index; count }
               | _ ->
                   invalid_arg
                     (Printf.sprintf "Schedule.of_string: bad decision %S" part))
           | _ ->
               invalid_arg
                 (Printf.sprintf "Schedule.of_string: bad decision %S" part))
