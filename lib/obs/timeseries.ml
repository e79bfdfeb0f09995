(* Time-series sampling of live gauges: the piece of the telemetry plane
   that can watch queue depths grow, drop bursts open and windows
   collapse *during* a run, where the registry only reports end-of-run
   aggregates.

   The sampler is an ordinary engine event that re-schedules itself
   every [interval].  Its perturbation-freedom argument, which the
   @faults digest test asserts end to end:

   - gauge thunks only *read* state (queue lengths, table sizes,
     counters); they never send a frame, never signal a process, never
     consume a PRNG draw, never allocate a spawn id;
   - extra events at an instant cannot reorder other events, because the
     default engine order is FIFO by sequence number and each event's
     sequence number is unchanged by interleaved registrations;
   - the loop parks itself when it finds the queue otherwise empty
     (nothing left but the sampler means nothing left to observe), so
     quiescence is reached exactly as without it — only the deadlock
     scan may run a few ticks later on the virtual clock, which no
     workload observes.

   Whole-run aggregates (count/min/max/mean/last) are exact however long
   the run; the ring keeps the most recent [capacity] samples for
   windowed SLOs and sparklines. *)

type config = { interval : Sim.Time.t; capacity : int }

let default_config = { interval = Sim.Time.us 50; capacity = 2048 }

type series = {
  read : unit -> float;
  times : float array; (* microseconds, parallel to [values] *)
  values : float array;
  mutable len : int; (* filled ring slots *)
  mutable head : int; (* next slot to overwrite *)
  mutable count : int; (* samples ever taken *)
  mutable vmin : float;
  mutable vmax : float;
  mutable sum : float;
  mutable first : float;
  mutable last : float;
}

type stat = {
  count : int;
  first : float;
  last : float;
  min : float;
  max : float;
  mean : float;
}

type t = {
  engine : Sim.Engine.t;
  cfg : config;
  mutable order : string list; (* registration order, newest first *)
  table : (string, series) Hashtbl.t;
  mutable ticks : int;
  mutable running : bool;
}

let create ?(config = default_config) engine =
  if config.capacity < 1 then invalid_arg "Timeseries: capacity < 1";
  if Sim.Time.(config.interval <= Sim.Time.zero) then
    invalid_arg "Timeseries: interval must be positive";
  {
    engine;
    cfg = config;
    order = [];
    table = Hashtbl.create 32;
    ticks = 0;
    running = false;
  }

let config t = t.cfg

let register t name read =
  if Hashtbl.mem t.table name then
    invalid_arg ("Timeseries.register: duplicate gauge " ^ name);
  Hashtbl.replace t.table name
    {
      read;
      times = Array.make t.cfg.capacity 0.;
      values = Array.make t.cfg.capacity 0.;
      len = 0;
      head = 0;
      count = 0;
      vmin = infinity;
      vmax = neg_infinity;
      sum = 0.;
      first = 0.;
      last = 0.;
    };
  t.order <- name :: t.order

let gauges t = List.rev t.order
let ticks t = t.ticks
let running t = t.running

let sample_one s ~now_us =
  let v = s.read () in
  s.times.(s.head) <- now_us;
  s.values.(s.head) <- v;
  s.head <- (s.head + 1) mod Array.length s.values;
  if s.len < Array.length s.values then s.len <- s.len + 1;
  if s.count = 0 then s.first <- v;
  s.count <- s.count + 1;
  s.sum <- s.sum +. v;
  s.last <- v;
  if v < s.vmin then s.vmin <- v;
  if v > s.vmax then s.vmax <- v

let sample t =
  let now_us = Sim.Time.to_us (Sim.Engine.now t.engine) in
  List.iter
    (fun name -> sample_one (Hashtbl.find t.table name) ~now_us)
    (List.rev t.order);
  t.ticks <- t.ticks + 1

let rec tick t () =
  if t.running then begin
    sample t;
    (* Reschedule only while other work remains: a drained queue means
       the run is over, and a sampler that kept itself alive would keep
       the engine from ever reaching quiescence. *)
    if Sim.Engine.pending t.engine > 0 then
      Sim.Engine.schedule ~after:t.cfg.interval t.engine (tick t)
    else t.running <- false
  end

let start t =
  if not t.running then begin
    t.running <- true;
    Sim.Engine.schedule t.engine (tick t)
  end

let stop t = t.running <- false

(* ---------------- Reading the series back ---------------- *)

let stat t name =
  match Hashtbl.find_opt t.table name with
  | None -> None
  | Some s when s.count = 0 -> None
  | Some s ->
      Some
        {
          count = s.count;
          first = s.first;
          last = s.last;
          min = s.vmin;
          max = s.vmax;
          mean = s.sum /. float_of_int s.count;
        }

(* Ring contents, oldest first. *)
let ring s =
  List.init s.len (fun i ->
      let slot =
        (s.head - s.len + i + Array.length s.values) mod Array.length s.values
      in
      (s.times.(slot), s.values.(slot)))

let samples t name =
  match Hashtbl.find_opt t.table name with None -> [] | Some s -> ring s

let window t name span =
  match Hashtbl.find_opt t.table name with
  | None -> []
  | Some s when s.len = 0 -> []
  | Some s ->
      let all = ring s in
      let horizon =
        match List.rev all with
        | (latest, _) :: _ -> latest -. Sim.Time.to_us span
        | [] -> 0.
      in
      List.filter (fun (time, _) -> time >= horizon) all

(* Per-second rate of a cumulative counter gauge over the ring (or a
   trailing window of it): slope between the first and last retained
   samples. *)
let rate ?window:span t name =
  let points =
    match span with Some s -> window t name s | None -> samples t name
  in
  match (points, List.rev points) with
  | (t0, v0) :: _, (t1, v1) :: _ when t1 > t0 ->
      Some ((v1 -. v0) /. ((t1 -. t0) /. 1e6))
  | _ -> None

(* ---------------- Rendering ---------------- *)

let glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]
(* ▁▂▃▄▅▆▇█ *)

let width = 32

let sparkline t name =
  match Hashtbl.find_opt t.table name with
  | None -> ""
  | Some s when s.len = 0 -> ""
  | Some s ->
      let points = Array.of_list (List.map snd (ring s)) in
      let n = Array.length points in
      let bins = Stdlib.min width n in
      let lo = Array.fold_left Stdlib.min points.(0) points in
      let hi = Array.fold_left Stdlib.max points.(0) points in
      let buf = Buffer.create (3 * bins) in
      for b = 0 to bins - 1 do
        let from = b * n / bins and until = ((b + 1) * n / bins) - 1 in
        let until = Stdlib.max from until in
        let acc = ref 0. in
        for i = from to until do
          acc := !acc +. points.(i)
        done;
        let mean = !acc /. float_of_int (until - from + 1) in
        let level =
          if hi <= lo then 0
          else
            Stdlib.min 7
              (int_of_float ((mean -. lo) /. (hi -. lo) *. 8.))
        in
        Buffer.add_string buf glyphs.(level)
      done;
      Buffer.contents buf
