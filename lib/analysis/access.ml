type seg_key = { home : int; seg : int; gen : int }

type kind = Load | Store | Atomic

type origin = Meta of Rmem.Rights.op | Local

type t = {
  id : int;
  agent : int;
  agent_name : string;
  key : seg_key;
  seg_name : string;
  kind : kind;
  off : int;
  count : int;
  time : Sim.Time.t;
  stamp : Vclock.t;
  mutable vis : Vclock.t list;
  origin : origin;
}

let is_write a = match a.kind with Store | Atomic -> true | Load -> false

let overlaps a b =
  a.key = b.key && a.count > 0 && b.count > 0
  && a.off < b.off + b.count
  && b.off < a.off + a.count

let ordered_before a b = List.exists (fun v -> Vclock.leq v b.stamp) a.vis

let key_to_string k = Printf.sprintf "node%d/seg%d.g%d" k.home k.seg k.gen

let kind_to_string = function
  | Load -> "load"
  | Store -> "store"
  | Atomic -> "cas"

let describe a =
  Printf.sprintf "%s %s [%d..%d) of %s (%s) at %s" a.agent_name
    (kind_to_string a.kind) a.off (a.off + a.count) a.seg_name
    (key_to_string a.key)
    (Sim.Time.to_string a.time)
