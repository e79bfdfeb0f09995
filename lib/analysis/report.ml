(* The string-fragment JSON writer and its self-validating printer.
   Only the system benchmark (bench/suite/suite.ml) still writes its
   records this way; every rnet report is a Metrics.Table whose JSON is
   the Metrics.Json tree. *)

module Json = struct
  type t = string

  let quote s = "\"" ^ Metrics.Json.escape s ^ "\""
  let str = quote
  let int n = string_of_int n
  let bool b = if b then "true" else "false"
  let raw s = s
  let list items = "[" ^ String.concat "," items ^ "]"

  let obj fields =
    "{" ^ String.concat "," (List.map (fun (k, v) -> quote k ^ ":" ^ v) fields) ^ "}"

  let to_string t = t
end

let emit ~tool line =
  (match Metrics.Json.parse line with
  | Ok _ -> ()
  | Error e ->
      Printf.eprintf "%s: emitted JSON failed self-validation: %s\n" tool e;
      exit 1);
  print_endline line
