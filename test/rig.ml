(* Shared test rigs: small clusters wired up for the common cases. *)

type duo = {
  testbed : Cluster.Testbed.t;
  engine : Sim.Engine.t;
  node0 : Cluster.Node.t;
  node1 : Cluster.Node.t;
  rmem0 : Rmem.Remote_memory.t;
  rmem1 : Rmem.Remote_memory.t;
  space0 : Cluster.Address_space.t;
  space1 : Cluster.Address_space.t;
}

(* The READs [node] issues from now on. *)
let reads node =
  let n = ref 0 in
  Cluster.Node.subscribe node (function
    | Rmem.Remote_memory.Issued { op = Rmem.Rights.Read_op; _ } -> incr n
    | _ -> ());
  n

let duo ?config ?seed () =
  let testbed = Cluster.Testbed.create ?config ?seed ~nodes:2 () in
  let node0 = Cluster.Testbed.node testbed 0 in
  let node1 = Cluster.Testbed.node testbed 1 in
  {
    testbed;
    engine = Cluster.Testbed.engine testbed;
    node0;
    node1;
    rmem0 = Rmem.Remote_memory.attach node0;
    rmem1 = Rmem.Remote_memory.attach node1;
    space0 = Cluster.Node.new_address_space node0;
    space1 = Cluster.Node.new_address_space node1;
  }

let run d body = Cluster.Testbed.run d.testbed body

(* Export a segment on node 1 and import it on node 0 (bypassing the
   name service). Call within a process. *)
let shared_segment ?(len = 65536) ?(rights = Rmem.Rights.all)
    ?(policy = Rmem.Segment.Conditional) d =
  let segment =
    Rmem.Remote_memory.export d.rmem1 ~space:d.space1 ~base:0 ~len ~rights
      ~policy ~name:"test" ()
  in
  let desc =
    Rmem.Remote_memory.import d.rmem0
      ~remote:(Cluster.Node.addr d.node1)
      ~segment_id:(Rmem.Segment.id segment)
      ~generation:(Rmem.Segment.generation segment)
      ~size:len ~rights ()
  in
  (segment, desc)

let buffer0 ?(len = 65536) d =
  Rmem.Remote_memory.buffer ~space:d.space0 ~base:0 ~len

let elapsed_us d body =
  let t0 = Sim.Engine.now d.engine in
  let result = body () in
  (result, Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now d.engine) t0))

(* Name-service pair: clerks on both nodes, request handlers armed. *)
type named_duo = { d : duo; clerk0 : Names.Clerk.t; clerk1 : Names.Clerk.t }

let named_duo ?seed () =
  let d = duo ?seed () in
  let clerks = ref None in
  run d (fun () ->
      let clerk0 = Names.Clerk.create d.rmem0 in
      let clerk1 = Names.Clerk.create d.rmem1 in
      Names.Clerk.serve_lookup_requests clerk0;
      Names.Clerk.serve_lookup_requests clerk1;
      clerks := Some (clerk0, clerk1));
  match !clerks with
  | Some (clerk0, clerk1) -> { d; clerk0; clerk1 }
  | None -> assert false

let within ?(tolerance = 0.2) ~expected actual =
  Float.abs (actual -. expected) <= tolerance *. Float.abs expected

(* Words allocated per call of [op], averaged over [n] calls after one
   warm-up call.  A buffer over 256 words skips the minor heap, and the
   runtime adds such direct major allocations to [major_words] only when
   a major slice runs: after a minor collection alone the count lags by
   whatever was allocated there since the last slice, in lumps that made
   a figure differ between n = 100 and n = 400 on paths with large
   buffers.  So each reading runs a minor collection (which makes the
   promoted count current) and then a major slice, and is exact for
   every size.  The full major collection first starts the window at
   the same point of the major cycle whatever ran before.  A figure
   still carries the rig's own reading, about 25 words over the window
   (0.25 per call at n = 100). *)
let words_per_op ~n op =
  let allocated () =
    Gc.minor ();
    ignore (Gc.major_slice 0 : int);
    let s = Gc.quick_stat () in
    s.minor_words +. s.major_words -. s.promoted_words
  in
  op ();
  Gc.full_major ();
  let w0 = allocated () in
  for _ = 1 to n do
    op ()
  done;
  (allocated () -. w0) /. float_of_int n

(* An allocation budget: prints the figure beside its budget on one line,
   "budget: WHAT: W words (at most B)", B in plain digits even in the
   millions, the form scripts/allocs.sh collects, and fails the test
   case when the figure is over it. *)
let within_budget what ~words ~budget =
  Printf.printf "budget: %s: %.2f words (at most %.12g)\n" what words budget;
  Alcotest.(check bool) (what ^ " within budget") true (words <= budget)
