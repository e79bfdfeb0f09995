(* Declarative service-level objectives over the metrics registry and
   the live time series.

   A spec is a list of clauses, one per line:

     # latency: percentile of a registry op series, microseconds
     p99 recover:read < 400 us

     # counters: final registry value, or per-second rate
     counter faults.drops <= 0
     rate faults.drops < 500

     # gauges: whole-run max / mean / last of a sampled time series
     max nic.0.rx_fifo < 1024
     mean link.mesh:0->1.depth < 4
     last rmem.0.inflight <= 0

   Any gauge or rate clause may end with "over <N> us|ms|s" to evaluate
   the trailing window of retained samples instead of the whole run:

     max fabric.switch_depth < 64 over 5 ms

   Evaluation is fail-closed: a clause whose source does not exist (no
   such counter series ever observed, gauge never sampled) is a
   violation with a diagnosis, not a silent pass — a CI gate that
   silently measured nothing would be worse than none. *)

type stat = Max | Mean | Last

type source =
  | Latency of { op : string; percentile : float }
  | Counter of string
  | Rate of string
  | Gauge of { name : string; stat : stat }

type cmp = Lt | Le | Gt | Ge

type clause = {
  text : string;
  source : source;
  cmp : cmp;
  bound : float;
  window : Sim.Time.t option;
}

type spec = clause list

(* ---------------- Parsing ---------------- *)

let cmp_of_string = function
  | "<" -> Some Lt
  | "<=" -> Some Le
  | ">" -> Some Gt
  | ">=" -> Some Ge
  | _ -> None

let cmp_to_string = function Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let stat_to_string = function Max -> "max" | Mean -> "mean" | Last -> "last"

let source_to_string = function
  | Latency { op; percentile } -> Printf.sprintf "p%g %s" percentile op
  | Counter name -> "counter " ^ name
  | Rate name -> "rate " ^ name
  | Gauge { name; stat } -> Printf.sprintf "%s %s" (stat_to_string stat) name

let clause_to_string c =
  Printf.sprintf "%s %s %g%s%s" (source_to_string c.source)
    (cmp_to_string c.cmp) c.bound
    (match c.source with Latency _ -> " us" | _ -> "")
    (match c.window with
    | None -> ""
    | Some w -> Printf.sprintf " over %s" (Sim.Time.to_string w))

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse_window = function
  | [] -> Ok None
  | [ "over"; n; unit_ ] -> (
      match (float_of_string_opt n, unit_) with
      | Some v, "us" -> Ok (Some (Sim.Time.of_us_float v))
      | Some v, "ms" -> Ok (Some (Sim.Time.of_ms_float v))
      | Some v, "s" -> Ok (Some (Sim.Time.of_sec_float v))
      | _ -> Error (Printf.sprintf "bad window %S %S" n unit_))
  | rest -> Error ("trailing tokens: " ^ String.concat " " rest)

let parse_percentile word =
  if String.length word >= 2 && word.[0] = 'p' then
    match
      float_of_string_opt (String.sub word 1 (String.length word - 1))
    with
    | Some p when p > 0. && p <= 100. -> Some p
    | _ -> None
  else None

let parse_clause line =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let finish ~source ~windowed rest =
    match rest with
    | op :: bound :: tail -> (
        match (cmp_of_string op, float_of_string_opt bound) with
        | Some cmp, Some value -> (
            (* Latency clauses take an optional "us" unit before any
               window suffix; nothing else does. *)
            let tail =
              match (source, tail) with
              | Latency _, "us" :: tail -> tail
              | _ -> tail
            in
            match parse_window tail with
            | Error e -> fail "%s: %s" line e
            | Ok (Some _) when not windowed ->
                fail "%s: only gauge and rate clauses take a window" line
            | Ok window -> Ok { text = line; source; cmp; bound = value; window })
        | None, _ -> fail "%s: bad comparator %S" line op
        | _, None -> fail "%s: bad bound %S" line bound)
    | _ -> fail "%s: expected '<cmp> <bound>'" line
  in
  match tokens line with
  | [] -> Ok { text = ""; source = Counter ""; cmp = Le; bound = 0.; window = None }
  | first :: rest -> (
      match (parse_percentile first, rest) with
      | Some percentile, op :: rest ->
          finish ~source:(Latency { op; percentile }) ~windowed:false rest
      | Some _, [] -> fail "%s: expected an op name after %s" line first
      | None, _ -> (
          match (first, rest) with
          | "counter", name :: rest ->
              finish ~source:(Counter name) ~windowed:false rest
          | "rate", name :: rest ->
              finish ~source:(Rate name) ~windowed:true rest
          | ("max" | "mean" | "last"), name :: rest ->
              let stat =
                match first with
                | "max" -> Max
                | "mean" -> Mean
                | _ -> Last
              in
              finish ~source:(Gauge { name; stat }) ~windowed:true rest
          | _ ->
              fail
                "%s: unknown clause head %S (want pNN, counter, rate, max, \
                 mean, last)"
                line first))

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse text =
  let lines = String.split_on_char '\n' text in
  let clauses, errors =
    List.fold_left
      (fun (clauses, errors) line ->
        let line = String.trim (strip_comment line) in
        if line = "" then (clauses, errors)
        else
          match parse_clause line with
          | Ok c -> (c :: clauses, errors)
          | Error e -> (clauses, e :: errors))
      ([], []) lines
  in
  match errors with
  | [] -> Ok (List.rev clauses)
  | errors -> Error (String.concat "\n" (List.rev errors))

(* ---------------- Evaluation ---------------- *)

type context = {
  registry : Registry.t option;
  series : Timeseries.t option;
  duration : Sim.Time.t;  (** whole-run span, for unwindowed rates *)
}

let measure ctx clause =
  match clause.source with
  | Latency { op; percentile } -> (
      match ctx.registry with
      | None -> Error "no registry attached"
      | Some registry -> (
          match Registry.aggregate registry ~op with
          | None -> Error (Printf.sprintf "no latency series for op %S" op)
          | Some h ->
              Ok (Metrics.Histogram.percentile h percentile)))
  | Counter name -> (
      match ctx.registry with
      | None -> Error "no registry attached"
      | Some registry ->
          (* Fail closed on a counter nobody ever touched, unless the
             bound is itself about being zero: "counter x <= 0" on an
             untouched counter is the pass the author meant. *)
          let v = Registry.counter registry name in
          if
            v = 0.
            && (not (List.mem_assoc name (Registry.counters registry)))
            && clause.bound > 0.
          then Error (Printf.sprintf "counter %S never observed" name)
          else Ok v)
  | Rate name -> (
      (* Prefer the sampled series (windowable, sees bursts); fall back
         to final-counter / duration for unwindowed clauses. *)
      match
        Option.bind ctx.series (fun ts ->
            Timeseries.rate ?window:clause.window ts name)
      with
      | Some r -> Ok r
      | None -> (
          match (clause.window, ctx.registry) with
          | None, Some registry
            when List.mem_assoc name (Registry.counters registry) ->
              let seconds = Sim.Time.to_sec ctx.duration in
              if seconds > 0. then
                Ok (Registry.counter registry name /. seconds)
              else Error "zero-duration run"
          | _ -> Error (Printf.sprintf "no samples for rate of %S" name)))
  | Gauge { name; stat } -> (
      match ctx.series with
      | None -> Error "no time series attached"
      | Some ts -> (
          match clause.window with
          | None -> (
              match Timeseries.stat ts name with
              | None -> Error (Printf.sprintf "gauge %S never sampled" name)
              | Some st ->
                  Ok
                    (match stat with
                    | Max -> st.Timeseries.max
                    | Mean -> st.Timeseries.mean
                    | Last -> st.Timeseries.last))
          | Some span -> (
              match Timeseries.window ts name span with
              | [] -> Error (Printf.sprintf "gauge %S has no windowed samples" name)
              | points -> (
                  let values = List.map snd points in
                  match stat with
                  | Max -> Ok (List.fold_left Stdlib.max (List.hd values) values)
                  | Mean ->
                      Ok
                        (List.fold_left ( +. ) 0. values
                        /. float_of_int (List.length values))
                  | Last -> Ok (List.nth values (List.length values - 1))))))

(* One row per clause: its banded measurement, or Missing. *)
let eval ctx spec =
  let module T = Metrics.Table in
  let band clause =
    let limit =
      match clause.cmp with
      | Lt -> T.Lt clause.bound
      | Le -> T.Le clause.bound
      | Gt -> T.Gt clause.bound
      | Ge -> T.Ge clause.bound
    in
    [ limit ]
  in
  T.make
    [ T.label "clause"; T.number "value" Plain; T.label "detail" ]
    (List.map
       (fun clause ->
         let value, detail =
           match measure ctx clause with
           | Ok v ->
               ( T.Num v,
                 Printf.sprintf "%g %s %g" v (cmp_to_string clause.cmp)
                   clause.bound )
           | Error why -> (T.Missing, why)
         in
         [
           T.text (clause_to_string clause);
           T.cell ~band:(band clause) value;
           T.text detail;
         ])
       spec)
