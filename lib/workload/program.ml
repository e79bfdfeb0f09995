(* The typed IR for per-node meta-instruction programs.

   A program is the declarative skeleton of a workload's data-transfer
   protocol: which segments each node touches, with which operations,
   at which (possibly loop- or value-dependent) offsets, under which
   retry discipline.  It deliberately has no general control flow —
   the paper's observation is that data-transfer code is a short,
   straight-line sequence of meta-instructions, which is exactly what
   makes it statically analyzable. *)

type expr =
  | Const of int
  | Var of string
  | Add of expr * expr
  | Mul of expr * expr

type role = Plain | Acquire | Release

type instr =
  | Read of { seg : string; off : expr; len : expr }
  | Read_word of { seg : string; off : expr; var : string; lo : int; hi : int }
  | Write of { seg : string; off : expr; len : expr; notify : bool }
  | Cas of { seg : string; off : expr; role : role }
  | Fence of { seg : string }
  | Wait of { seg : string }
  | Local_read of { seg : string; off : expr; len : expr }
  | Local_write of { seg : string; off : expr; len : expr }
  | For of { var : string; lo : int; hi : int; body : instr list }
  | Retry of {
      attempts : int option;
      backoff : bool;
      verified : bool;
      body : instr list;
    }

type node_program = { node : int; name : string; body : instr list }

type t = {
  name : string;
  manifest : Rmem.Manifest.t;
  nodes : node_program list;
}

let word = 4

(* Constructors terse enough that the catalog reads like the protocol
   it declares. *)
let c n = Const n
let v name = Var name
let ( + ) a b = Add (a, b)
let ( * ) a b = Mul (a, b)

let read ~seg ~off ~len = Read { seg; off; len }

let read_word ~seg ~off ~var ~lo ~hi = Read_word { seg; off; var; lo; hi }

let write ?(notify = false) ~seg ~off ~len () = Write { seg; off; len; notify }

let cas ?(role = Plain) seg ~off = Cas { seg; off; role }

let fence seg = Fence { seg }
let wait seg = Wait { seg }
let local_read ~seg ~off ~len = Local_read { seg; off; len }
let local_write ~seg ~off ~len = Local_write { seg; off; len }
let for_ var ~lo ~hi body = For { var; lo; hi; body }

let retry ?attempts ?(backoff = false) ?(verified = true) body =
  Retry { attempts; backoff; verified; body }

let rec expr_to_string = function
  | Const n -> string_of_int n
  | Var x -> x
  | Add (a, b) ->
      Printf.sprintf "%s+%s" (expr_to_string a) (expr_to_string b)
  | Mul (a, b) ->
      Printf.sprintf "%s*%s" (expr_to_string a) (expr_to_string b)

let rec instr_count body =
  List.fold_left
    (fun acc i ->
      Stdlib.( + ) acc
        (match i with
        | For { body; _ } | Retry { body; _ } ->
            Stdlib.( + ) 1 (instr_count body)
        | _ -> 1))
    0 body
