(* The three structurings of one distributed data structure: pure
   remote-memory operations issued by the client (DX), remote procedure
   calls served on the home node (RPC), and the hybrid that runs each
   phase of an operation by that phase's rule ({!Plane.phase}). *)

type t = Dx | Rpc | Hybrid

let all = [ Dx; Rpc; Hybrid ]
let to_string = function Dx -> "dx" | Rpc -> "rpc" | Hybrid -> "hybrid"
