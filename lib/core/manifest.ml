(* Export manifests: the static description of a workload's shared
   segments — what the kernel would pre-validate at map time instead of
   per-access.  A manifest is data, not live state: it can be written
   down next to a meta-instruction program and checked before a single
   simulated cell moves, or extracted from live segments with
   [of_segment] so a running endpoint and its declaration cannot
   drift. *)

type export = {
  seg : string;
  exporter : int;
  len : int;
  rights : Rights.t;
  grants : (int * Rights.t) list;
  policy : Segment.notify_policy;
}

type t = export list

let find t seg = List.find_opt (fun e -> e.seg = seg) t

let exporter t seg = Option.map (fun e -> e.exporter) (find t seg)

let rights_for t ~seg ~importer =
  Option.map
    (fun e ->
      match List.assoc_opt importer e.grants with
      | Some r -> r
      | None -> e.rights)
    (find t seg)

let of_segment ~exporter s =
  {
    seg = Segment.name s;
    exporter;
    len = Segment.length s;
    rights = Segment.default_rights s;
    grants = [];
    policy = Segment.policy s;
  }

let rights_to_string (r : Rights.t) =
  Printf.sprintf "%s%s%s"
    (if r.Rights.read then "r" else "-")
    (if r.Rights.write then "w" else "-")
    (if r.Rights.cas then "c" else "-")

let describe (e : export) =
  Printf.sprintf "%s: node %d, %d bytes, rights %s, notify %s" e.seg
    e.exporter e.len (rights_to_string e.rights)
    (Segment.policy_to_string e.policy)
