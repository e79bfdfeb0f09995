(* Access rights on a remote memory segment. *)

type t = { read : bool; write : bool; cas : bool }

type op = Read_op | Write_op | Cas_op

let all = { read = true; write = true; cas = true }
let read_only = { read = true; write = false; cas = false }
let write_only = { read = false; write = true; cas = false }

let make ?(read = false) ?(write = false) ?(cas = false) () =
  { read; write; cas }

let allows t = function
  | Read_op -> t.read
  | Write_op -> t.write
  | Cas_op -> t.cas

let to_code t =
  (if t.read then 1 else 0)
  lor (if t.write then 2 else 0)
  lor (if t.cas then 4 else 0)

(* The eight codes' rights, built once: a decoded record shares one
   instead of allocating its own. *)
let by_code =
  Array.init 8 (fun c ->
      { read = c land 1 <> 0; write = c land 2 <> 0; cas = c land 4 <> 0 })

let of_code c = Array.unsafe_get by_code (c land 7)
