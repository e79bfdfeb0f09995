(* The three structurings of one distributed data structure: pure
   remote-memory operations issued by the client (DX), remote procedure
   calls served on the home node (RPC), and the hybrid that runs the
   remote-memory fast path and falls back to RPC under contention. *)

type t = Dx | Rpc | Hybrid

let all = [ Dx; Rpc; Hybrid ]
let to_string = function Dx -> "dx" | Rpc -> "rpc" | Hybrid -> "hybrid"
