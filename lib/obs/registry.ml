(* The cluster-wide metrics registry: named counters plus one latency
   histogram per (node, segment, op).  Per-node histograms share a
   bucket layout so [Metrics.Histogram.merge] can aggregate them into
   cluster-wide series for the report. *)

type series_key = { node : int; seg : int; op : string }

type t = {
  counters : (string, float ref) Hashtbl.t;
  series : (series_key, Metrics.Histogram.t) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 32; series = Hashtbl.create 32 }

let add t name by =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r +. by
  | None -> Hashtbl.replace t.counters name (ref by)

let incr t name = add t name 1.

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0.

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort compare

(* One layout for every series, so any two histograms merge. *)
let new_histogram () = Metrics.Histogram.create ~least:0.1 ~growth:1.15 ()

let observe t ~node ~seg ~op value =
  let key = { node; seg; op } in
  let h =
    match Hashtbl.find_opt t.series key with
    | Some h -> h
    | None ->
        let h = new_histogram () in
        Hashtbl.replace t.series key h;
        h
  in
  Metrics.Histogram.add h value

let series t =
  Hashtbl.fold (fun key h acc -> (key, h) :: acc) t.series []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Merged in key order: a histogram merge combines float moments, so the
   order of the fold shows in the low bits. *)
let aggregate t ~op =
  List.fold_left
    (fun acc (key, h) ->
      if String.equal key.op op then
        match acc with
        | None -> Some h
        | Some m -> Some (Metrics.Histogram.merge m h)
      else acc)
    None (series t)

let ops t =
  Hashtbl.fold (fun key _ acc -> key.op :: acc) t.series []
  |> List.sort_uniq compare

let pct h p = Metrics.Histogram.percentile h p

(* Plain-text report: cluster-wide aggregates per op, the top-N
   (node, segment, op) series by sample count, and every counter. *)
let report t =
  let top = 10 in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "== cluster-wide latency by op (us) ==";
  line "%-12s %8s %10s %10s %10s %10s" "op" "count" "mean" "p50" "p95" "p99";
  (* Every op named by a series has an aggregate. *)
  List.iter
    (fun op ->
      Option.iter
        (fun h ->
          line "%-12s %8d %10.1f %10.1f %10.1f %10.1f" op
            (Metrics.Histogram.count h)
            (Metrics.Summary.mean (Metrics.Histogram.summary h))
            (pct h 50.) (pct h 95.) (pct h 99.))
        (aggregate t ~op))
    (ops t);
  line "";
  line "== top %d series by sample count ==" top;
  line "%-8s %-6s %-12s %8s %10s %10s %10s" "node" "seg" "op" "count" "p50"
    "p95" "p99";
  let ranked =
    series t
    |> List.sort (fun (_, a) (_, b) ->
           compare (Metrics.Histogram.count b) (Metrics.Histogram.count a))
  in
  List.iteri
    (fun i (key, h) ->
      if i < top then
        line "node%-4d %-6d %-12s %8d %10.1f %10.1f %10.1f" key.node key.seg
          key.op
          (Metrics.Histogram.count h)
          (pct h 50.) (pct h 95.) (pct h 99.))
    ranked;
  line "";
  line "== counters ==";
  List.iter (fun (name, v) -> line "%-40s %12.0f" name v) (counters t);
  Buffer.contents buf
