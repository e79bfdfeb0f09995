(* One-call construction of a complete simulated cluster. *)

type t = { engine : Sim.Engine.t; network : Atm.Network.t; nodes : Node.t array }

let create ?(costs = Costs.default) ?(config = Atm.Config.default)
    ?(topology = Atm.Network.Back_to_back) ?(seed = 42) ~nodes:count () =
  let engine = Sim.Engine.create () in
  let network = Atm.Network.create ~config ~topology engine ~nodes:count in
  let root_prng = Sim.Prng.create seed in
  let nodes =
    Array.init count (fun i ->
        let nic = Atm.Network.nic_of_int network i in
        let node =
          Node.create engine ~costs ~nic ~prng:(Sim.Prng.split root_prng)
        in
        Node.start node;
        node)
  in
  { engine; network; nodes }

let engine t = t.engine
let network t = t.network
let node t i = t.nodes.(i)
let nodes t = Array.to_list t.nodes

let run t body = Sim.Proc.run t.engine body
