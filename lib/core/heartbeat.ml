(* Failure detection over pure data transfer (§3.7).

   The read/write primitives carry no fault-tolerance of their own; the
   paper's recipe is that "a service that required fault tolerance could
   implement a periodic remote read request of a known (or monotonically
   increasing) value.  Failure to read the value within a timeout period
   can be used to raise an exception."

   [publish] runs the exporter-side daemon that keeps a counter word
   increasing; [watch] runs the watcher loop that remote-reads it and
   reports failure after consecutive misses (timeouts or a stuck
   counter). *)

type state = Alive | Failed

type t = {
  rmem : Remote_memory.t;
  desc : Descriptor.t;
  soff : int;
  period : Sim.Time.t;
  timeout : Sim.Time.t;
  strikes_allowed : int;
  on_failure : unit -> unit;
  buf : Remote_memory.buffer;
  buf_space : Cluster.Address_space.t;
  buf_base : int;
  mutable last_value : int;
  mutable strikes : int;
  mutable state : state;
  mutable stopped : bool;
}

let publish rmem segment ~off ~period =
  let node = Remote_memory.node rmem in
  let space = Segment.space segment in
  let addr = Segment.base segment + off in
  let stopped = ref false in
  Cluster.Node.spawn node (fun () ->
      let value = ref 1 in
      while not !stopped do
        Cluster.Address_space.write_word space ~addr !value;
        incr value;
        Sim.Proc.wait period
      done);
  fun () -> stopped := true

let state t = t.state
let strikes t = t.strikes
let stop t = t.stopped <- true

let probe t =
  match
    Remote_memory.read_wait ~timeout:t.timeout t.rmem t.desc ~soff:t.soff
      ~count:4 ~dst:t.buf ~doff:0 ()
  with
  | () ->
      let value =
        Cluster.Address_space.read_word t.buf_space ~addr:t.buf_base
      in
      (* The counter must keep moving: a reachable kernel fronting a
         wedged publisher counts as a failure too. *)
      if value > t.last_value then begin
        t.last_value <- value;
        t.strikes <- 0
      end
      else t.strikes <- t.strikes + 1
  | exception (Status.Timeout | Status.Remote_error _) ->
      t.strikes <- t.strikes + 1

let watch rmem desc ~soff ?(period = Sim.Time.ms 10)
    ?(timeout = Sim.Time.ms 5) ?(strikes_allowed = 3) ~on_failure () =
  let node = Remote_memory.node rmem in
  let space = Cluster.Node.new_address_space node in
  let t =
    {
      rmem;
      desc;
      soff;
      period;
      timeout;
      strikes_allowed;
      on_failure;
      buf = Remote_memory.buffer ~space ~base:0 ~len:16;
      buf_space = space;
      buf_base = 0;
      last_value = 0;
      strikes = 0;
      state = Alive;
      stopped = false;
    }
  in
  Cluster.Node.spawn node (fun () ->
      while (not t.stopped) && t.state = Alive do
        probe t;
        if t.strikes > t.strikes_allowed then begin
          t.state <- Failed;
          t.on_failure ()
        end
        else Sim.Proc.wait t.period
      done);
  t
