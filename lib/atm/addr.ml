(* Node addresses on the cluster network. *)

type t = int

let of_int i =
  if i < 0 then invalid_arg "Addr.of_int: negative address";
  i

let to_int a = a
let equal = Int.equal
let pp ppf a = Format.fprintf ppf "node%d" a
let to_string a = Format.asprintf "%a" pp a
