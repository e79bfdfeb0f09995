(* Topology construction.

   [Back_to_back] wires every pair of nodes with dedicated links (the
   paper's two-node switchless testbed generalized to a full mesh);
   [Star] puts one output-queued switch in the middle, the deployment
   the paper anticipates for larger clusters.  [Clos] and [Fat_tree]
   scale that out to a multi-switch fabric — leaf/spine (or three-tier
   pod/core) switches joined by trunks, with a deterministic
   shortest-path route table per switch — so hundreds of hosts can be
   simulated without the mesh's quadratic link count.

   Every link in the fabric is retained, with its endpoints, so the
   fault plane can interpose on each edge; route lookups for unknown
   destinations drop-with-counter at the NIC or switch rather than
   aborting. *)

type topology =
  | Back_to_back
  | Star
  | Clos of { spines : int; leaves : int; hosts_per_leaf : int }
  | Fat_tree of { k : int }

type t = {
  nics : Nic.t array;
  switches : Switch.t list;
  mesh_edges : (int option * int option * Link.t) list;
}

let build_mesh engine config nics =
  let n = Array.length nics in
  (* links.(i).(j) carries traffic from node i to node j. *)
  let links = Array.make_matrix n n None in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let dst_nic = nics.(j) in
        let link =
          Link.create
            ~name:(Printf.sprintf "mesh:%d->%d" i j)
            engine config
            ~deliver:(fun frame -> Nic.deliver dst_nic frame)
        in
        links.(i).(j) <- Some link;
        edges := (Some i, Some j, link) :: !edges
      end
    done
  done;
  Array.iteri
    (fun i nic ->
      Nic.set_route nic (fun dst ->
          let d = Addr.to_int dst in
          if d < 0 || d >= n then None else links.(i).(d)))
    nics;
  List.rev !edges

(* Attach a host below a switch: downlink, uplink, and the NIC's route
   (everything goes up — the switch fabric does the addressing). *)
let attach_host switch nic =
  Switch.attach_port switch nic;
  let uplink = Some (Switch.uplink_for switch (Nic.addr nic)) in
  Nic.set_route nic (fun _dst -> uplink)

let build_star engine config nics =
  let switch = Switch.create engine config in
  Array.iter (fun nic -> attach_host switch nic) nics;
  [ switch ]

(* Two-tier leaf/spine Clos.  Host i hangs off leaf [i / hosts_per_leaf];
   every leaf trunks to every spine in both directions.  Routing is
   deterministic shortest-path: a leaf delivers same-leaf traffic on the
   local downlink and spreads remote traffic over the spines by
   destination address ([dst mod spines]); a spine sends every
   destination down the trunk to its leaf. *)
let build_clos engine config nics ~spines ~leaves ~hosts_per_leaf =
  if spines < 1 || leaves < 1 || hosts_per_leaf < 1 then
    invalid_arg "Network.create: Clos parameters must be positive";
  let n = Array.length nics in
  if n <> leaves * hosts_per_leaf then
    invalid_arg
      (Printf.sprintf
         "Network.create: Clos needs nodes = leaves * hosts_per_leaf (%d <> %d*%d)"
         n leaves hosts_per_leaf);
  let leaf =
    Array.init leaves (fun l ->
        Switch.create ~name:(Printf.sprintf "leaf.%d" l) engine config)
  in
  let spine =
    Array.init spines (fun s ->
        Switch.create ~name:(Printf.sprintf "spine.%d" s) engine config)
  in
  let leaf_of i = i / hosts_per_leaf in
  Array.iteri (fun i nic -> attach_host leaf.(leaf_of i) nic) nics;
  let up_trunk =
    Array.init leaves (fun l ->
        Array.init spines (fun s -> Switch.trunk_to leaf.(l) spine.(s)))
  in
  let down_trunk =
    Array.init spines (fun s ->
        Array.init leaves (fun l -> Switch.trunk_to spine.(s) leaf.(l)))
  in
  for dst = 0 to n - 1 do
    let dl = leaf_of dst in
    for l = 0 to leaves - 1 do
      if l <> dl then
        Switch.add_route leaf.(l) ~dst up_trunk.(l).(dst mod spines)
    done;
    for s = 0 to spines - 1 do
      Switch.add_route spine.(s) ~dst down_trunk.(s).(dl)
    done
  done;
  Array.to_list leaf @ Array.to_list spine

(* Three-tier k-ary fat tree: k pods of k/2 edge and k/2 aggregation
   switches, (k/2)^2 cores, k^3/4 hosts.  Aggregation switch [a] of
   every pod trunks to cores [a*(k/2) .. a*(k/2)+k/2-1], so one
   deterministic shortest path exists per (source, destination): up via
   aggregation [dst mod k/2], across core [agg*(k/2) + (dst mod k/2)],
   down the destination pod's matching aggregation and edge. *)
let build_fat_tree engine config nics ~k =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Network.create: Fat_tree needs an even k >= 2";
  let half = k / 2 in
  let n = Array.length nics in
  if n <> k * half * half then
    invalid_arg
      (Printf.sprintf "Network.create: Fat_tree k=%d needs k^3/4 = %d nodes, got %d"
         k (k * half * half) n);
  let pod_hosts = half * half in
  let edge =
    Array.init k (fun p ->
        Array.init half (fun e ->
            Switch.create ~name:(Printf.sprintf "edge.%d.%d" p e) engine config))
  in
  let agg =
    Array.init k (fun p ->
        Array.init half (fun a ->
            Switch.create ~name:(Printf.sprintf "agg.%d.%d" p a) engine config))
  in
  let core =
    Array.init (half * half) (fun c ->
        Switch.create ~name:(Printf.sprintf "core.%d" c) engine config)
  in
  let pod_of i = i / pod_hosts in
  let edge_of i = i mod pod_hosts / half in
  Array.iteri (fun i nic -> attach_host edge.(pod_of i).(edge_of i) nic) nics;
  let edge_up =
    Array.init k (fun p ->
        Array.init half (fun e ->
            Array.init half (fun a -> Switch.trunk_to edge.(p).(e) agg.(p).(a))))
  in
  let agg_down =
    Array.init k (fun p ->
        Array.init half (fun a ->
            Array.init half (fun e -> Switch.trunk_to agg.(p).(a) edge.(p).(e))))
  in
  let agg_up =
    Array.init k (fun p ->
        Array.init half (fun a ->
            Array.init half (fun j ->
                Switch.trunk_to agg.(p).(a) core.((a * half) + j))))
  in
  let core_down =
    Array.init (half * half) (fun c ->
        Array.init k (fun p -> Switch.trunk_to core.(c) agg.(p).(c / half)))
  in
  for dst = 0 to n - 1 do
    let pd = pod_of dst and ed = edge_of dst in
    let spread = dst mod half in
    for p = 0 to k - 1 do
      for e = 0 to half - 1 do
        if not (p = pd && e = ed) then
          Switch.add_route edge.(p).(e) ~dst edge_up.(p).(e).(spread)
      done;
      for a = 0 to half - 1 do
        if p = pd then Switch.add_route agg.(p).(a) ~dst agg_down.(p).(a).(ed)
        else Switch.add_route agg.(p).(a) ~dst agg_up.(p).(a).(spread)
      done
    done;
    for c = 0 to (half * half) - 1 do
      Switch.add_route core.(c) ~dst core_down.(c).(pd)
    done
  done;
  List.concat_map Array.to_list (Array.to_list edge)
  @ List.concat_map Array.to_list (Array.to_list agg)
  @ Array.to_list core

let create ?(config = Config.default) ?(topology = Back_to_back) engine ~nodes =
  if nodes < 2 then invalid_arg "Network.create: need at least two nodes";
  let pool = Frame.pool () in
  let nics =
    Array.init nodes (fun i -> Nic.create config ~pool (Addr.of_int i))
  in
  let switches, mesh_edges =
    match topology with
    | Back_to_back -> ([], build_mesh engine config nics)
    | Star -> (build_star engine config nics, [])
    | Clos { spines; leaves; hosts_per_leaf } ->
        (build_clos engine config nics ~spines ~leaves ~hosts_per_leaf, [])
    | Fat_tree { k } -> (build_fat_tree engine config nics ~k, [])
  in
  { nics; switches; mesh_edges }

let nic_of_int t i = t.nics.(i)
let size t = Array.length t.nics
let switches t = t.switches

let links t =
  match t.switches with
  | [] -> t.mesh_edges
  | switches -> List.concat_map Switch.links switches
