(* Unit and property tests for the simulation engine. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Time ---------------- *)

let time_conversions () =
  check_int "us" 1_000 (Sim.Time.us 1);
  check_int "ms" 1_000_000 (Sim.Time.ms 1);
  check_int "sec" 1_000_000_000 (Sim.Time.sec 1);
  Alcotest.(check (float 1e-9)) "to_us" 1.5 (Sim.Time.to_us (Sim.Time.ns 1500));
  check_int "of_us_float rounds" 1_500 (Sim.Time.of_us_float 1.5);
  check_int "scale" 3_000 (Sim.Time.scale (Sim.Time.us 2) 1.5);
  check_bool "ordering" true Sim.Time.(us 1 < ms 1)

let time_pp () =
  Alcotest.(check string) "ns" "999ns" (Sim.Time.to_string 999);
  Alcotest.(check string) "us" "1.50us" (Sim.Time.to_string 1500);
  Alcotest.(check string) "ms" "2.000ms" (Sim.Time.to_string 2_000_000)

(* [mul] is the integer form of [scale] by a count: the float product of
   a time below 2^31 ns and a count below 2^20 is an integer below 2^53,
   so both give the same instant. *)
let time_mul_matches_scale =
  QCheck.Test.make ~name:"Time.mul t n = Time.scale t (float_of_int n)"
    ~count:1000
    QCheck.(pair (int_bound ((1 lsl 31) - 1)) (int_bound ((1 lsl 20) - 1)))
    (fun (t, n) -> Sim.Time.mul t n = Sim.Time.scale t (float_of_int n))

(* ---------------- Engine ---------------- *)

let engine_fifo_same_time () =
  let engine = Sim.Engine.create () in
  let order = ref [] in
  let note tag () = order := tag :: !order in
  Sim.Engine.schedule engine (note "a");
  Sim.Engine.schedule engine (note "b");
  Sim.Engine.schedule ~after:(Sim.Time.us 1) engine (note "d");
  Sim.Engine.schedule engine (note "c");
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c"; "d" ]
    (List.rev !order)

let engine_time_advances () =
  let engine = Sim.Engine.create () in
  let seen = ref [] in
  List.iter
    (fun delay ->
      Sim.Engine.schedule ~after:delay engine (fun () ->
          seen := Sim.Engine.now engine :: !seen))
    [ Sim.Time.us 5; Sim.Time.us 1; Sim.Time.us 3 ];
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "fires in time order"
    [ Sim.Time.us 1; Sim.Time.us 3; Sim.Time.us 5 ]
    (List.rev !seen)

let engine_until_limit () =
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule ~after:(Sim.Time.us 10) engine (fun () -> incr fired);
  Sim.Engine.schedule ~after:(Sim.Time.us 30) engine (fun () -> incr fired);
  Sim.Engine.run ~until:(Sim.Time.us 20) engine;
  check_int "only first fired" 1 !fired;
  check_int "clock at limit" (Sim.Time.us 20) (Sim.Engine.now engine);
  Sim.Engine.run engine;
  check_int "rest fired" 2 !fired

let engine_no_past_events () =
  let engine = Sim.Engine.create () in
  Sim.Engine.schedule ~after:(Sim.Time.us 5) engine (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: event in the past")
        (fun () -> Sim.Engine.schedule_at engine Sim.Time.zero (fun () -> ())));
  Sim.Engine.run engine

let engine_stop () =
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule engine (fun () ->
      incr fired;
      Sim.Engine.stop engine);
  Sim.Engine.schedule ~after:(Sim.Time.us 1) engine (fun () -> incr fired);
  Sim.Engine.run engine;
  check_int "stopped after first" 1 !fired

(* ---------------- Heap property ---------------- *)

(* Take the minimum as a (time, seq) key, the way [Engine.step] reads it. *)
let heap_take heap =
  ignore (Sim.Heap.take_min heap ~until:max_int);
  let key = Sim.Heap.taken heap in
  if key.Sim.Heap.key_seq < 0 then None
  else Some (key.Sim.Heap.key_time, key.Sim.Heap.key_seq)

let heap_pop_sorted =
  QCheck.Test.make ~name:"heap pops in (time, seq) order" ~count:200
    QCheck.(list (int_bound 1_000_000))
    (fun times ->
      let heap = Sim.Heap.create ~dummy:() () in
      List.iteri (fun seq time -> Sim.Heap.push heap ~time ~seq ()) times;
      let rec drain previous =
        match heap_take heap with
        | None -> true
        | Some key -> if compare previous key <= 0 then drain key else false
      in
      drain (min_int, min_int))

let heap_same_time_seq_order =
  QCheck.Test.make ~name:"same-key entries pop in seq order" ~count:200
    QCheck.(pair (int_bound 3) (list_of_size Gen.(2 -- 30) (int_bound 3)))
    (fun (min_time, times) ->
      (* Only a handful of distinct times, so same-time runs are long;
         seqs are assigned in push order and must come back ascending
         within every run. *)
      let heap = Sim.Heap.create ~dummy:() () in
      List.iteri (fun seq time -> Sim.Heap.push heap ~time ~seq ()) times;
      Sim.Heap.push heap ~time:min_time ~seq:(List.length times) ();
      let rec drain previous =
        match heap_take heap with
        | None -> true
        | Some (time, seq) ->
            if
              time > fst previous || (time = fst previous && seq > snd previous)
            then drain (time, seq)
            else false
      in
      drain (min_int, min_int))

let heap_entries_at_min_and_remove () =
  let heap = Sim.Heap.create ~dummy:(-1) () in
  check_bool "empty min set" true (Sim.Heap.entries_at_min heap = []);
  List.iter
    (fun (time, seq) -> Sim.Heap.push heap ~time ~seq seq)
    [ (5, 0); (3, 1); (5, 2); (3, 3); (3, 4) ];
  let seqs entries = List.map (fun e -> e.Sim.Heap.seq) entries in
  Alcotest.(check (list int))
    "all min-time entries, ascending seq" [ 1; 3; 4 ]
    (seqs (Sim.Heap.entries_at_min heap));
  check_int "peek unchanged" 5 (Sim.Heap.length heap);
  (match Sim.Heap.remove heap ~seq:3 with
  | Some e -> check_int "removed the right payload" 3 e.Sim.Heap.payload
  | None -> Alcotest.fail "seq 3 should be present");
  check_bool "absent seq" true (Sim.Heap.remove heap ~seq:99 = None);
  Alcotest.(check (list int))
    "min set after removal" [ 1; 4 ]
    (seqs (Sim.Heap.entries_at_min heap));
  let rec drain acc =
    if Sim.Heap.is_empty heap then List.rev acc
    else drain (Sim.Heap.take_min heap ~until:max_int :: acc)
  in
  Alcotest.(check (list int))
    "heap invariant survives removal" [ 1; 4; 0; 2 ] (drain [])

(* Random interleavings of every heap operation against a sorted list of
   (time, seq, payload): few distinct times, so equal times are common. *)
type heap_op = Push of int | Take | Due of int | Remove of int | At_min

let print_heap_op = function
  | Push t -> Printf.sprintf "push %d" t
  | Take -> "take"
  | Due t -> Printf.sprintf "due %d" t
  | Remove s -> Printf.sprintf "remove %d" s
  | At_min -> "at_min"

(* Run [ops] on a fresh heap and on the oracle, then drain both, each
   take preceded by a due take just short of the minimum's time; true if
   every result and every length agree. *)
let heap_agrees_with_oracle ops =
  let heap = Sim.Heap.create ~dummy:(-1) () in
  let oracle = ref [] and next_seq = ref 0 in
  let triple e = (e.Sim.Heap.time, e.Sim.Heap.seq, e.Sim.Heap.payload) in
  let rec insert entry = function
    | next :: rest when compare next entry < 0 -> next :: insert entry rest
    | rest -> entry :: rest
  in
  let taken_key () =
    let key = Sim.Heap.taken heap in
    (key.Sim.Heap.key_time, key.Sim.Heap.key_seq)
  in
  let rec step = function
    | Push time ->
        let seq = !next_seq in
        incr next_seq;
        Sim.Heap.push heap ~time ~seq (seq * 10);
        oracle := insert (time, seq, seq * 10) !oracle;
        true
    | Take -> step (Due max_int)
    | Due until -> (
        let payload = Sim.Heap.take_min heap ~until in
        match !oracle with
        | (time, seq, expected) :: rest when time <= until ->
            oracle := rest;
            payload = expected && taken_key () = (time, seq)
        | _ -> payload = -1 && snd (taken_key ()) = -1)
    | Remove seq ->
        let expected = List.find_opt (fun (_, s, _) -> s = seq) !oracle in
        oracle := List.filter (fun (_, s, _) -> s <> seq) !oracle;
        Option.map triple (Sim.Heap.remove heap ~seq) = expected
    | At_min ->
        let expected =
          match !oracle with
          | [] -> []
          | (time, _, _) :: _ -> List.filter (fun (t, _, _) -> t = time) !oracle
        in
        List.map triple (Sim.Heap.entries_at_min heap) = expected
  in
  let agrees o = step o && Sim.Heap.length heap = List.length !oracle in
  let rec drain () =
    match !oracle with
    | [] -> Sim.Heap.is_empty heap
    | (time, _, _) :: _ -> agrees (Due (time - 1)) && agrees Take && drain ()
  in
  List.for_all agrees ops && drain ()

let heap_matches_sorted_list =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun t -> Push t) (int_bound 4));
          (2, return Take);
          (1, map (fun s -> Remove s) (int_bound 40));
          (1, return At_min);
        ])
  in
  QCheck.Test.make ~name:"heap agrees with a sorted-list oracle" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_heap_op)
       QCheck.Gen.(list_size (0 -- 60) op))
    heap_agrees_with_oracle

(* The same past the near tier's 64 entries: a run of 65 to 150 pushes
   fills it and overflows into the heap behind it, then takes, due
   takes, removals and min-set reads interleave with more pushes across
   both tiers.  Pushes are late (times up to 40) and early (0 or 1), so
   a full near tier both evicts its maximum and passes new entries
   straight to the heap. *)
let heap_overflow_matches_sorted_list =
  let push =
    QCheck.Gen.(
      map (fun t -> Push t) (frequency [ (3, int_bound 40); (1, int_bound 1) ]))
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, push);
          (2, return Take);
          (1, map (fun t -> Due t) (int_bound 40));
          (1, map (fun s -> Remove s) (int_bound 300));
          (1, return At_min);
        ])
  in
  QCheck.Test.make ~name:"heap agrees with a sorted-list oracle past the near tier"
    ~count:100
    (QCheck.make ~print:QCheck.Print.(list print_heap_op)
       QCheck.Gen.(map2 ( @ ) (list_size (65 -- 150) push) (list_size (0 -- 200) op)))
    heap_agrees_with_oracle

(* A taken or removed payload (a fired event's closure, say) must not
   stay reachable from the heap's arrays, even from a slot past the end
   that the last move vacated.  [n] payloads are pushed latest first, so
   past 64 each push evicts the near tier's maximum into the heap.  One
   is taken, every third by seq is removed, and the rest are taken. *)
let heap_releases_payloads n () =
  let heap = Sim.Heap.create ~dummy:(ref 0) () in
  let weak = Weak.create n in
  for seq = 0 to n - 1 do
    let payload = ref seq in
    Weak.set weak seq (Some payload);
    Sim.Heap.push heap ~time:(n + 7 - seq) ~seq payload
  done;
  ignore (Sys.opaque_identity (Sim.Heap.take_min heap ~until:max_int));
  for seq = 0 to n - 1 do
    if seq mod 3 = 1 then ignore (Sys.opaque_identity (Sim.Heap.remove heap ~seq))
  done;
  while not (Sim.Heap.is_empty heap) do
    ignore (Sys.opaque_identity (Sim.Heap.take_min heap ~until:max_int))
  done;
  check_bool "drained" true (Sim.Heap.is_empty heap);
  Gc.full_major ();
  for seq = 0 to n - 1 do
    check_bool (Printf.sprintf "payload %d collected" seq) false
      (Weak.check weak seq)
  done;
  (* The heap itself must still be live for the check to mean anything. *)
  Sim.Heap.push heap ~time:0 ~seq:n (ref n);
  check_int "heap still in use" 1 (Sim.Heap.length heap)

(* ---------------- Same-instant choice points ---------------- *)

let engine_choice_points () =
  let engine = Sim.Engine.create () in
  let order = ref [] in
  let note tag () = order := tag :: !order in
  Sim.Engine.schedule engine (note "a");
  Sim.Engine.schedule engine (note "b");
  Sim.Engine.schedule engine (note "c");
  (match Sim.Engine.next_enabled engine with
  | Some choice ->
      check_int "three enabled" 3 (List.length choice.Sim.Engine.enabled);
      check_int "at time zero" 0 choice.Sim.Engine.at
  | None -> Alcotest.fail "expected a choice point");
  (* A scheduler that reverses FIFO must reverse the firing order. *)
  Sim.Engine.set_scheduler engine
    (Some
       (fun choice ->
         List.nth choice.Sim.Engine.enabled
           (List.length choice.Sim.Engine.enabled - 1)));
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "reversed" [ "c"; "b"; "a" ]
    (List.rev !order)

(* Same-instant events split across the queue's two tiers: 70 events at
   5 us fill the 64-entry near tier and overflow 6 into the heap behind
   it; 10 at 1 us each evict the near tier's latest 5 us event; 5 more
   at 5 us go straight to the heap.  Each instant fires in seq order, and
   an installed scheduler is offered every event of the instant. *)
let engine_same_instant_across_tiers () =
  let fill engine order =
    let note seq () = order := seq :: !order in
    let at us seqs =
      List.iter
        (fun seq -> Sim.Engine.schedule ~after:(Sim.Time.us us) engine (note seq))
        seqs
    in
    at 5 (List.init 70 Fun.id);
    at 1 (List.init 10 (fun i -> 70 + i));
    at 5 (List.init 5 (fun i -> 80 + i))
  in
  let early = List.init 10 (fun i -> 70 + i) in
  let late = List.init 70 Fun.id @ List.init 5 (fun i -> 80 + i) in
  let engine = Sim.Engine.create () in
  let order = ref [] in
  fill engine order;
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "seq order per instant" (early @ late) (List.rev !order);
  let engine = Sim.Engine.create () in
  let order = ref [] and offered = ref [] in
  fill engine order;
  Sim.Engine.set_scheduler engine
    (Some
       (fun choice ->
         offered := choice :: !offered;
         List.hd choice.Sim.Engine.enabled));
  Sim.Engine.run engine;
  Alcotest.(check (list int))
    "FIFO scheduler, same order" (early @ late) (List.rev !order);
  (* The scheduler is asked only when two or more events are enabled:
     9 times at 1 us, then 74 times at 5 us. *)
  let offered = Array.of_list (List.rev !offered) in
  check_int "choices" (9 + 74) (Array.length offered);
  Alcotest.(check (list int))
    "first instant offered whole" early offered.(0).Sim.Engine.enabled;
  check_int "second instant" (Sim.Time.us 5) offered.(9).Sim.Engine.at;
  Alcotest.(check (list int)) "second instant offered whole, both tiers" late
    offered.(9).Sim.Engine.enabled

let engine_step_seq_validates () =
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  Sim.Engine.schedule engine (fun () -> fired := "a" :: !fired);
  Sim.Engine.schedule engine (fun () -> fired := "b" :: !fired);
  Sim.Engine.schedule ~after:(Sim.Time.us 1) engine (fun () ->
      fired := "late" :: !fired);
  let enabled =
    match Sim.Engine.next_enabled engine with
    | Some c -> c.Sim.Engine.enabled
    | None -> Alcotest.fail "expected a choice point"
  in
  check_int "two enabled now" 2 (List.length enabled);
  (* The later event exists but is not enabled at this instant. *)
  check_bool "not-enabled seq rejected" true
    (try
       ignore (Sim.Engine.step_seq engine 2);
       false
     with Invalid_argument _ -> true);
  check_bool "fired second first" true
    (Sim.Engine.step_seq engine (List.nth enabled 1));
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "order" [ "b"; "a"; "late" ]
    (List.rev !fired)

let explicit_fifo_scheduler_is_default () =
  (* The first-enabled scheduler must replay the default order exactly. *)
  let trace scheduler =
    let engine = Sim.Engine.create () in
    (match scheduler with
    | true -> Sim.Engine.set_scheduler engine (Some (fun c -> List.hd c.Sim.Engine.enabled))
    | false -> ());
    let order = ref [] in
    let note tag () = order := tag :: !order in
    Sim.Proc.spawn ~name:"p1" engine (fun () ->
        note "p1-start" ();
        Sim.Proc.yield ();
        note "p1-mid" ();
        Sim.Proc.wait (Sim.Time.us 2);
        note "p1-end" ());
    Sim.Proc.spawn ~name:"p2" engine (fun () ->
        note "p2-start" ();
        Sim.Proc.wait (Sim.Time.us 2);
        note "p2-end" ());
    Sim.Engine.schedule ~after:(Sim.Time.us 1) engine (note "timer");
    Sim.Engine.run engine;
    List.rev !order
  in
  Alcotest.(check (list string))
    "identical event order" (trace false) (trace true)

(* ---------------- Deadlock reporting ---------------- *)

let engine_deadlock_names_waiters () =
  let engine = Sim.Engine.create () in
  Sim.Proc.spawn ~name:"stuck" engine (fun () ->
      ignore
        (Sim.Proc.sleep (Sim.Proc.sleepers ())
           ~resource:(Sim.Engine.Quoted ("ivar", "never")) ~daemon:false
          : int));
  Sim.Proc.spawn ~name:"server" engine (fun () ->
      ignore
        (Sim.Proc.sleep (Sim.Proc.sleepers ())
           ~resource:(Sim.Engine.Text "request queue") ~daemon:true
          : int));
  match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock (_, blocked) ->
      check_int "one non-daemon waiter" 1 (List.length blocked);
      let b = List.hd blocked in
      Alcotest.(check string) "process named" "stuck" b.Sim.Engine.process;
      Alcotest.(check string)
        "resource named" "ivar \"never\"" b.Sim.Engine.resource;
      let report = Sim.Engine.deadlock_report blocked in
      let contains needle =
        let n = String.length needle and h = String.length report in
        let rec scan i =
          i + n <= h && (String.sub report i n = needle || scan (i + 1))
        in
        scan 0
      in
      check_bool "report names the process" true (contains "stuck");
      check_bool "report names the resource" true (contains "ivar \"never\"")

(* Labels are formatted only when a report is built; the text must be
   exactly what formatting them at every wait produced. *)
let deadlock_report_text_pinned () =
  let engine = Sim.Engine.create () in
  let reply = Sim.Ivar.create ~name:"reply \"x\"" () in
  let inbox = Sim.Mailbox.create ~name:"inbox" () in
  let cpu = Sim.Resource.create ~name:"cpu0" () in
  Sim.Proc.spawn ~name:"holder" engine (fun () ->
      Sim.Resource.acquire cpu;
      Sim.Ivar.read reply);
  Sim.Proc.spawn engine (fun () -> ignore (Sim.Mailbox.recv inbox : int));
  Sim.Proc.spawn engine (fun () ->
      Sim.Proc.wait (Sim.Time.us 3);
      Sim.Resource.acquire cpu);
  match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock (_, blocked) ->
      Alcotest.(check string)
        "report text"
        "deadlock: holder blocked on ivar \"reply \\\"x\\\"\" since 0ns; \
         proc0 blocked on mailbox \"inbox\" since 0ns; \
         proc1 blocked on resource \"cpu0\" since 3.00us"
        (Sim.Engine.deadlock_report blocked)

(* Waking a waiter from the middle of the registry must not disturb the
   order of the rest, and a process that blocks again re-registers at
   the tail. *)
let deadlock_order_after_middle_wake () =
  let engine = Sim.Engine.create () in
  let ivar name = Sim.Ivar.create ~name () in
  let a = ivar "A" and b = ivar "B" and c = ivar "C" in
  let again = ivar "again" and d = ivar "D" in
  Sim.Proc.spawn ~name:"a" engine (fun () -> Sim.Ivar.read a);
  Sim.Proc.spawn ~name:"b" engine (fun () ->
      Sim.Ivar.read b;
      Sim.Ivar.read again);
  Sim.Proc.spawn ~name:"c" engine (fun () -> Sim.Ivar.read c);
  Sim.Proc.spawn ~name:"d" engine (fun () ->
      Sim.Proc.wait (Sim.Time.us 2);
      Sim.Ivar.read d);
  Sim.Engine.schedule ~after:(Sim.Time.us 1) engine (fun () ->
      Sim.Ivar.fill b ());
  match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock (_, blocked) ->
      Alcotest.(check string)
        "registration order"
        "deadlock: a blocked on ivar \"A\" since 0ns; \
         c blocked on ivar \"C\" since 0ns; \
         b blocked on ivar \"again\" since 1.00us; \
         d blocked on ivar \"D\" since 2.00us"
        (Sim.Engine.deadlock_report blocked)

let blocked_hides_daemons () =
  let engine = Sim.Engine.create () in
  let inbox = Sim.Mailbox.create ~name:"inbox" ~daemon:true () in
  let reply = Sim.Ivar.create ~name:"reply" () in
  Sim.Proc.spawn ~name:"server" engine (fun () ->
      ignore (Sim.Mailbox.recv inbox : int));
  Sim.Proc.spawn ~name:"client" engine (fun () -> Sim.Ivar.read reply);
  Sim.Engine.set_deadlock_detection engine false;
  Sim.Engine.run engine;
  Alcotest.(check (list (pair string string)))
    "daemons hidden" [ ("client", "ivar \"reply\"") ]
    (List.map
       (fun b -> (b.Sim.Engine.process, b.Sim.Engine.resource))
       (Sim.Engine.blocked engine))

let second_resume_rejected () =
  let second_resume ~daemon =
    let engine = Sim.Engine.create () in
    let sleepers = Sim.Proc.sleepers () in
    Sim.Proc.spawn ~name:"sleeper" engine (fun () ->
        let (_ : int) =
          Sim.Proc.sleep sleepers ~resource:(Sim.Engine.Text "slot") ~daemon
        in
        ());
    Sim.Proc.spawn ~name:"waker" engine (fun () ->
        if Sim.Proc.is_empty sleepers then Alcotest.fail "sleeper did not block"
        else begin
          Sim.Proc.wake sleepers 1;
          Alcotest.check_raises "second resume"
            (Invalid_argument "Proc: continuation resumed twice") (fun () ->
              Sim.Proc.wake sleepers 2)
        end);
    Sim.Engine.run engine
  in
  second_resume ~daemon:false;
  second_resume ~daemon:true

(* A wake that comes after its sleep has ended must not reach the
   process's next sleep: the sleeper, woken once and asleep again on
   another queue, stays asleep, and the stale wake raises. *)
let stale_wake_rejected () =
  let engine = Sim.Engine.create () in
  let first = Sim.Proc.sleepers () and second = Sim.Proc.sleepers () in
  let got = ref [] in
  Sim.Proc.spawn ~name:"sleeper" engine (fun () ->
      let sleep_on q name =
        got :=
          Sim.Proc.sleep q ~resource:(Sim.Engine.Text name) ~daemon:false
          :: !got
      in
      sleep_on first "first";
      sleep_on second "second");
  Sim.Proc.spawn ~name:"waker" engine (fun () ->
      Sim.Proc.wake first 1;
      Sim.Proc.wait (Sim.Time.us 1);
      check_bool "asleep again" false (Sim.Proc.is_empty second);
      Alcotest.check_raises "stale wake"
        (Invalid_argument "Proc: continuation resumed twice") (fun () ->
          Sim.Proc.wake first 2));
  Sim.Engine.set_deadlock_detection engine false;
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "only the first wake arrived" [ 1 ] !got;
  Alcotest.(check (list string))
    "still blocked on the second queue" [ "second" ]
    (List.map (fun b -> b.Sim.Engine.resource) (Sim.Engine.blocked engine))

let suspend_outside_process () =
  let unhandled f =
    match f () with
    | () -> false
    | exception Effect.Unhandled _ -> true
  in
  check_bool "sleep" true
    (unhandled (fun () ->
         Sim.Proc.sleep (Sim.Proc.sleepers ()) ~resource:(Sim.Engine.Text "x")
           ~daemon:false));
  check_bool "daemon sleep" true
    (unhandled (fun () ->
         Sim.Proc.sleep (Sim.Proc.sleepers ()) ~resource:(Sim.Engine.Text "x")
           ~daemon:true));
  check_bool "ivar read" true
    (unhandled (fun () -> Sim.Ivar.read (Sim.Ivar.create ())));
  check_bool "wait" true (unhandled (fun () -> Sim.Proc.wait (Sim.Time.us 1)))

let unnamed_processes_numbered () =
  let engine = Sim.Engine.create () in
  let never = Sim.Ivar.create ~name:"never" () in
  Sim.Proc.spawn engine (fun () -> Sim.Ivar.read never);
  Sim.Proc.spawn ~name:"named" engine (fun () -> Sim.Ivar.read never);
  Sim.Proc.spawn engine (fun () -> Sim.Ivar.read never);
  Sim.Engine.set_deadlock_detection engine false;
  Sim.Engine.run engine;
  Alcotest.(check (list string))
    "numbered per engine, named ones skipped" [ "proc0"; "named"; "proc1" ]
    (List.map (fun b -> b.Sim.Engine.process) (Sim.Engine.blocked engine))

let engine_daemons_never_deadlock () =
  let engine = Sim.Engine.create () in
  Sim.Proc.spawn ~name:"rx-loop" engine (fun () ->
      ignore
        (Sim.Proc.sleep (Sim.Proc.sleepers ()) ~resource:(Sim.Engine.Text "nic")
           ~daemon:true
          : int));
  Sim.Engine.run engine;
  check_int "daemon not listed" 0 (List.length (Sim.Engine.blocked engine))

(* ---------------- Proc ---------------- *)

let proc_wait_accumulates () =
  let engine = Sim.Engine.create () in
  let result =
    Sim.Proc.run engine (fun () ->
        Sim.Proc.wait (Sim.Time.us 10);
        Sim.Proc.wait (Sim.Time.us 5);
        Sim.Engine.now engine)
  in
  check_int "waited 15us" (Sim.Time.us 15) result

let proc_suspend_resume () =
  let engine = Sim.Engine.create () in
  let sleepers = Sim.Proc.sleepers () in
  Sim.Proc.spawn engine (fun () ->
      Sim.Proc.wait (Sim.Time.us 3);
      if not (Sim.Proc.is_empty sleepers) then Sim.Proc.wake sleepers 42);
  let result =
    Sim.Proc.run engine (fun () ->
        Sim.Proc.sleep sleepers ~resource:(Sim.Engine.Text "x") ~daemon:false)
  in
  check_int "resumed with value" 42 result

(* A process blocked for good on an ivar no one fills. *)
let stranded_waiter engine =
  let never = Sim.Ivar.create () in
  Sim.Proc.spawn engine (fun () -> Sim.Ivar.read never)

let proc_run_deadlock () =
  let engine = Sim.Engine.create () in
  check_bool "deadlock raised" true
    (try
       ignore
         (Sim.Proc.run engine (fun () : int ->
              Sim.Proc.sleep (Sim.Proc.sleepers ())
                ~resource:(Sim.Engine.Text "x") ~daemon:false));
       false
     with Sim.Engine.Deadlock _ -> true);
  let engine = Sim.Engine.create () in
  check_bool "deadlock after a body that returned" true
    (try
       Sim.Proc.run engine (fun () -> stranded_waiter engine);
       false
     with Sim.Engine.Deadlock _ -> true)

(* A failed body explains the run, even when a process it spawned is
   left blocked behind it. *)
let proc_exception_propagates () =
  List.iter
    (fun (what, body) ->
      let engine = Sim.Engine.create () in
      check_bool what true
        (try
           let () = Sim.Proc.run engine (body engine) in
           false
         with Failure msg -> String.equal msg "boom"))
    [
      ("exception surfaced", fun _ () -> failwith "boom");
      ( "exception surfaced over a blocked waiter",
        fun engine () ->
          stranded_waiter engine;
          failwith "boom" );
    ]

(* ---------------- Ivar ---------------- *)

let ivar_basics () =
  let engine = Sim.Engine.create () in
  let ivar = Sim.Ivar.create () in
  check_bool "empty" false (Sim.Ivar.is_full ivar);
  Sim.Proc.spawn engine (fun () ->
      Sim.Proc.wait (Sim.Time.us 2);
      Sim.Ivar.fill ivar "done");
  let value = Sim.Proc.run engine (fun () -> Sim.Ivar.read ivar) in
  Alcotest.(check string) "value" "done" value;
  check_bool "double fill rejected" true
    (not (Sim.Ivar.try_fill ivar "again"));
  Alcotest.check_raises "fill raises" (Invalid_argument "Ivar.fill: already full")
    (fun () -> Sim.Ivar.fill ivar "boom")

let ivar_multiple_readers () =
  let engine = Sim.Engine.create () in
  let ivar = Sim.Ivar.create () in
  let seen = ref [] in
  for i = 1 to 3 do
    Sim.Proc.spawn engine (fun () ->
        let v = Sim.Ivar.read ivar in
        seen := (i, v) :: !seen)
  done;
  Sim.Proc.spawn engine (fun () ->
      Sim.Proc.wait (Sim.Time.us 1);
      Sim.Ivar.fill ivar 7);
  Sim.Engine.run engine;
  Alcotest.(check (list (pair int int)))
    "all woken in blocking order"
    [ (1, 7); (2, 7); (3, 7) ]
    (List.rev !seen)

(* ---------------- Mailbox ---------------- *)

let mailbox_fifo () =
  let engine = Sim.Engine.create () in
  let mailbox = Sim.Mailbox.create () in
  let received = ref [] in
  Sim.Proc.spawn engine (fun () ->
      for _ = 1 to 3 do
        received := Sim.Mailbox.recv mailbox :: !received
      done);
  Sim.Proc.spawn engine (fun () ->
      Sim.Mailbox.send mailbox 1;
      Sim.Proc.wait (Sim.Time.us 1);
      Sim.Mailbox.send mailbox 2;
      Sim.Mailbox.send mailbox 3);
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !received)

let mailbox_try_recv () =
  let mailbox = Sim.Mailbox.create () in
  Alcotest.(check (option int)) "empty" None (Sim.Mailbox.try_recv mailbox);
  Sim.Mailbox.send mailbox 9;
  Alcotest.(check (option int)) "one" (Some 9) (Sim.Mailbox.try_recv mailbox)

(* ---------------- Resource ---------------- *)

let resource_fifo_mutex () =
  let engine = Sim.Engine.create () in
  let resource = Sim.Resource.create () in
  let order = ref [] in
  for i = 1 to 3 do
    Sim.Proc.spawn engine (fun () ->
        Sim.Resource.with_resource resource (fun () ->
            order := i :: !order;
            Sim.Proc.wait (Sim.Time.us 10)))
  done;
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "served in arrival order" [ 1; 2; 3 ]
    (List.rev !order);
  check_int "contended twice" 2 (Sim.Resource.contended resource);
  check_int "three acquisitions" 3 (Sim.Resource.acquisitions resource);
  check_int "holds serialized: 30us total" (Sim.Time.us 30)
    (Sim.Engine.now engine)

let resource_release_unheld () =
  let resource = Sim.Resource.create () in
  Alcotest.check_raises "release unheld"
    (Invalid_argument "Resource.release: not held") (fun () ->
      Sim.Resource.release resource)

(* ---------------- Prng ---------------- *)

let prng_deterministic () =
  let a = Sim.Prng.create 42 and b = Sim.Prng.create 42 in
  let sequence p = List.init 32 (fun _ -> Sim.Prng.int p 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (sequence a) (sequence b)

let prng_split_independent () =
  let parent = Sim.Prng.create 1 in
  let child = Sim.Prng.split parent in
  let child_draws = List.init 8 (fun _ -> Sim.Prng.int child 1000) in
  let parent_draws = List.init 8 (fun _ -> Sim.Prng.int parent 1000) in
  check_bool "streams differ" true (child_draws <> parent_draws)

let prng_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:500
    QCheck.(pair (int_bound 1000) small_int)
    (fun (bound, seed) ->
      let bound = bound + 1 in
      let prng = Sim.Prng.create seed in
      let v = Sim.Prng.int prng bound in
      v >= 0 && v < bound)

let prng_float_range =
  QCheck.Test.make ~name:"prng float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let prng = Sim.Prng.create seed in
      let f = Sim.Prng.float prng in
      f >= 0. && f < 1.)

(* Sim.Int_table against a Hashtbl oracle.  Keys come from a narrow
   range (so probe clusters form and removals land inside them) and
   from a few far-apart stream-key-like values; the table starts at its
   smallest size, so a run grows it several times.  Every step's answer
   must match, and so must the final bindings and length. *)
type int_table_op =
  | Set of int * int
  | Del of int
  | Get of int
  | Has of int
  | Len

let print_int_table_op = function
  | Set (k, v) -> Printf.sprintf "set %d %d" k v
  | Del k -> Printf.sprintf "del %d" k
  | Get k -> Printf.sprintf "get %d" k
  | Has k -> Printf.sprintf "has %d" k
  | Len -> "len"

let int_table_matches_hashtbl =
  let key =
    QCheck.Gen.(
      frequency
        [
          (6, int_range (-8) 40);
          (1, map (fun r -> (r lsl 24) lor (1 lsl 16) lor 1) (int_bound 7));
          (1, int_range (-(1 lsl 40)) (1 lsl 40));
        ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun k v -> Set (k, v)) key small_nat);
          (3, map (fun k -> Del k) key);
          (2, map (fun k -> Get k) key);
          (1, map (fun k -> Has k) key);
          (1, return Len);
        ])
  in
  QCheck.Test.make ~name:"Int_table agrees with a Hashtbl oracle" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_int_table_op)
       QCheck.Gen.(list_size (0 -- 300) op))
    (fun ops ->
      let t = Sim.Int_table.create 1 and oracle = Hashtbl.create 1 in
      let step = function
        | Set (k, v) ->
            Sim.Int_table.replace t k v;
            Hashtbl.replace oracle k v;
            true
        | Del k ->
            Sim.Int_table.remove t k;
            Hashtbl.remove oracle k;
            true
        | Get k ->
            Sim.Int_table.find_opt t k = Hashtbl.find_opt oracle k
            && (match Sim.Int_table.find t k with
               | v -> Hashtbl.find_opt oracle k = Some v
               | exception Not_found -> not (Hashtbl.mem oracle k))
        | Has k -> Sim.Int_table.mem t k = Hashtbl.mem oracle k
        | Len -> Sim.Int_table.length t = Hashtbl.length oracle
      in
      let bindings fold tbl =
        List.sort compare (fold (fun k v acc -> (k, v) :: acc) tbl [])
      in
      List.for_all step ops
      && Sim.Int_table.length t = Hashtbl.length oracle
      && bindings Sim.Int_table.fold t = bindings Hashtbl.fold oracle
      &&
      (Sim.Int_table.reset t;
       Sim.Int_table.length t = 0
       && Sim.Int_table.fold (fun _ _ n -> n + 1) t 0 = 0
       && Hashtbl.fold (fun k _ ok -> ok && not (Sim.Int_table.mem t k)) oracle true))

let mailbox_readers_fifo () =
  let engine = Sim.Engine.create () in
  let mailbox = Sim.Mailbox.create () in
  let woken = ref [] in
  for i = 1 to 3 do
    Sim.Proc.spawn engine (fun () ->
        let v = Sim.Mailbox.recv mailbox in
        woken := (i, v) :: !woken)
  done;
  Sim.Proc.spawn engine (fun () ->
      Sim.Proc.wait (Sim.Time.us 1);
      List.iter (Sim.Mailbox.send mailbox) [ 10; 20; 30 ]);
  Sim.Engine.run engine;
  Alcotest.(check (list (pair int int)))
    "blocked readers served in order"
    [ (1, 10); (2, 20); (3, 30) ]
    (List.rev !woken)

(* Two readers blocked on one mailbox are woken by one event that sends
   two messages; a scheduler that is FIFO except at that instant fires
   the second reader's wake first.  Each reader must still get the
   message its send handed it: a woken reader that popped the next
   message itself would swap them. *)
let mailbox_same_instant_wakes () =
  let engine = Sim.Engine.create () in
  let mailbox = Sim.Mailbox.create () in
  let got = ref [] in
  List.iter
    (fun name ->
      Sim.Proc.spawn ~name engine (fun () ->
          let m = Sim.Mailbox.recv mailbox in
          got := (name, m) :: !got))
    [ "A"; "B" ];
  Sim.Engine.schedule ~after:1 engine (fun () ->
      Sim.Mailbox.send mailbox "m1";
      Sim.Mailbox.send mailbox "m2");
  Sim.Engine.set_scheduler engine
    (Some
       (fun c ->
         let last = List.length c.Sim.Engine.enabled - 1 in
         if c.at = 1 then List.nth c.enabled last else List.hd c.enabled));
  Sim.Engine.run engine;
  Alcotest.(check (list (pair string string)))
    "B woken first, each with its own message"
    [ ("B", "m2"); ("A", "m1") ]
    (List.rev !got)

let resource_exception_safe () =
  let engine = Sim.Engine.create () in
  let resource = Sim.Resource.create () in
  let second_ran = ref false in
  Sim.Proc.spawn engine (fun () ->
      try Sim.Resource.with_resource resource (fun () -> failwith "inside")
      with Failure _ -> ());
  Sim.Proc.spawn engine (fun () ->
      Sim.Resource.with_resource resource (fun () -> second_ran := true));
  Sim.Engine.run engine;
  check_bool "released despite the exception" true !second_ran;
  check_bool "free at the end" false (Sim.Resource.is_busy resource)

(* ---------------- Host allocation budget ---------------- *)

(* The control path's host cost, against budgets 10% above what the
   allocation-lean path measures (2 words per wait, 21 per blocked read
   and its fill with the ivar and the fill event, 7 per contended
   charge, none per event): a reintroduced per-wait closure or effect,
   registry entry, per-event record, per-sleep handler, wake thunk or
   effect to find the sleeper, or a box per unit wake, fails here. *)
let control_path_budget () =
  let n = 2000 in
  let engine = Sim.Engine.create () in
  let event =
    Rig.words_per_op ~n (fun () ->
        Sim.Engine.schedule engine ignore;
        ignore (Sim.Engine.step engine : bool))
  in
  let wait, blocked_read =
    Sim.Proc.run engine (fun () ->
        let wait = Rig.words_per_op ~n (fun () -> Sim.Proc.wait 1) in
        let blocked_read =
          Rig.words_per_op ~n (fun () ->
              let ivar = Sim.Ivar.create () in
              Sim.Engine.schedule ~after:1 engine (fun () -> Sim.Ivar.fill ivar ());
              Sim.Ivar.read ivar)
        in
        (wait, blocked_read))
  in
  (* Two processes share one CPU, so every charge but the first finds it
     busy; the window covers both processes' charges. *)
  let cpu = Cluster.Cpu.create () in
  let charge () = Cluster.Cpu.use cpu ~category:"c" 1 in
  let stop = ref false in
  Sim.Proc.spawn engine (fun () ->
      while not !stop do
        charge ()
      done);
  let contended =
    Sim.Proc.run engine (fun () ->
        let words = Rig.words_per_op ~n charge in
        stop := true;
        words /. 2.)
  in
  Rig.within_budget "schedule + step" ~words:event ~budget:0.4;
  Rig.within_budget "Proc.wait" ~words:wait ~budget:2.2;
  Rig.within_budget "blocked Ivar.read + fill" ~words:blocked_read ~budget:23.1;
  Rig.within_budget "contended Cpu.use" ~words:contended ~budget:7.7

(* The event queue at steady state in the hold model: take the minimum,
   push a new entry a pseudo-random 1 to [2 * depth] ns later.  At depth
   64 every entry stays in the near tier; at depth 1,000 entries flow
   through the overflow heap both ways.  Neither allocates: a word per
   operation would read 1.0 against a budget of 0.1. *)
let event_queue_budget () =
  let hold depth =
    let heap = Sim.Heap.create ~dummy:ignore () in
    let seq = ref 0 and rng = ref 1 in
    let push time =
      Sim.Heap.push heap ~time ~seq:!seq ignore;
      incr seq
    in
    let later time =
      rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
      time + 1 + (!rng mod (2 * depth))
    in
    for _ = 1 to depth do
      push (later 0)
    done;
    Rig.words_per_op ~n:20_000 (fun () ->
        ignore (Sim.Heap.take_min heap ~until:max_int : unit -> unit);
        push (later (Sim.Heap.taken heap).Sim.Heap.key_time))
  in
  Rig.within_budget "Heap.push + take_min, depth 64" ~words:(hold 64) ~budget:0.1;
  Rig.within_budget "Heap.push + take_min, depth 1000" ~words:(hold 1000)
    ~budget:0.1

(* A receiver blocked on an empty mailbox and the send that wakes it,
   against a budget 10% above what they allocate (7 words): a
   per-receive wake closure, handler or effect to find the receiver
   fails here. *)
let mailbox_budget () =
  let n = 2000 in
  let engine = Sim.Engine.create () in
  let mailbox = Sim.Mailbox.create () in
  let send () = Sim.Mailbox.send mailbox () in
  let words =
    Sim.Proc.run engine (fun () ->
        Rig.words_per_op ~n (fun () ->
            Sim.Engine.schedule_at engine (Sim.Engine.now engine + 1) send;
            Sim.Mailbox.recv mailbox))
  in
  Rig.within_budget "blocked Mailbox.recv + send" ~words ~budget:7.7

(* An uncontended CPU charge is one wait plus bookkeeping: attributing
   the time to its category must not box a float on top of the wait. *)
let uncontended_charge_budget () =
  let n = 2000 in
  let engine = Sim.Engine.create () in
  let cpu = Cluster.Cpu.create () in
  let wait, charge =
    Sim.Proc.run engine (fun () ->
        let wait = Rig.words_per_op ~n (fun () -> Sim.Proc.wait 1) in
        let charge =
          Rig.words_per_op ~n (fun () -> Cluster.Cpu.use cpu ~category:"c" 1)
        in
        (wait, charge))
  in
  (* A little slack absorbs the averaging, not a word more. *)
  Rig.within_budget "uncontended Cpu.use (Proc.wait + 0.4)" ~words:charge
    ~budget:(wait +. 0.4)

let engine_pending_counts () =
  let engine = Sim.Engine.create () in
  Sim.Engine.schedule engine (fun () -> ());
  Sim.Engine.schedule ~after:(Sim.Time.us 1) engine (fun () -> ());
  check_int "two pending" 2 (Sim.Engine.pending engine);
  ignore (Sim.Engine.step engine : bool);
  check_int "one left" 1 (Sim.Engine.pending engine)

(* Outside every process — at top level once a run has ended, or in a
   plain event — a sleep or a park raises before it touches anything:
   the queue stays empty and nothing is left registered as blocked. *)
let sleep_outside_leaves_queue_empty () =
  let unhandled f =
    match f () with
    | () -> false
    | exception Effect.Unhandled _ -> true
  in
  let engine = Sim.Engine.create () in
  Sim.Proc.run engine (fun () -> Sim.Proc.wait 1);
  let q = Sim.Proc.sleepers () in
  let sleep () = Sim.Proc.sleep q ~resource:(Sim.Engine.Text "x") ~daemon:false in
  check_bool "sleep after a run raises" true (unhandled sleep);
  check_bool "queue left empty" true (Sim.Proc.is_empty q);
  Sim.Engine.schedule engine sleep;
  check_bool "sleep in a plain event raises" true
    (unhandled (fun () -> Sim.Engine.run engine));
  check_bool "queue still empty" true (Sim.Proc.is_empty q);
  check_bool "park raises" true
    (unhandled (fun () ->
         Sim.Proc.park ~resource:(Sim.Engine.Text "x") ~daemon:false));
  check_int "nothing blocked" 0 (List.length (Sim.Engine.blocked engine))

(* A process that runs a nested engine — whose own process blocks in it
   for good — and then sleeps is the one a wake resumes. *)
let nested_engine_then_sleep () =
  let outer = Sim.Engine.create () in
  let q = Sim.Proc.sleepers () in
  let got = ref 0 in
  Sim.Proc.spawn ~name:"outer" outer (fun () ->
      let inner = Sim.Engine.create () in
      let inner_q = Sim.Proc.sleepers () in
      Sim.Proc.spawn ~name:"inner" inner (fun () ->
          ignore
            (Sim.Proc.sleep inner_q ~resource:(Sim.Engine.Text "inner")
               ~daemon:true
              : int));
      Sim.Engine.run inner;
      got := Sim.Proc.sleep q ~resource:(Sim.Engine.Text "outer") ~daemon:false);
  Sim.Proc.spawn ~name:"waker" outer (fun () ->
      Sim.Proc.wait 10;
      Sim.Proc.wake q 7);
  Sim.Engine.run outer;
  check_int "the outer process got the value" 7 !got;
  check_bool "queue empty" true (Sim.Proc.is_empty q)

let suite =
  [
    Alcotest.test_case "time conversions" `Quick time_conversions;
    Alcotest.test_case "mailbox readers FIFO" `Quick mailbox_readers_fifo;
    Alcotest.test_case "same-instant mailbox wakes keep their messages" `Quick
      mailbox_same_instant_wakes;
    Alcotest.test_case "resource exception safety" `Quick resource_exception_safe;
    Alcotest.test_case "engine pending counts" `Quick engine_pending_counts;
    Alcotest.test_case "time pretty printing" `Quick time_pp;
    Alcotest.test_case "same-time events are FIFO" `Quick engine_fifo_same_time;
    Alcotest.test_case "time advances in order" `Quick engine_time_advances;
    Alcotest.test_case "run ~until honors limit" `Quick engine_until_limit;
    Alcotest.test_case "no events in the past" `Quick engine_no_past_events;
    Alcotest.test_case "stop halts the loop" `Quick engine_stop;
    Alcotest.test_case "proc wait accumulates" `Quick proc_wait_accumulates;
    Alcotest.test_case "proc suspend/resume" `Quick proc_suspend_resume;
    Alcotest.test_case "proc deadlock detected" `Quick proc_run_deadlock;
    Alcotest.test_case "proc exception propagates" `Quick proc_exception_propagates;
    Alcotest.test_case "ivar fill/read/double-fill" `Quick ivar_basics;
    Alcotest.test_case "ivar wakes all readers" `Quick ivar_multiple_readers;
    Alcotest.test_case "mailbox is FIFO" `Quick mailbox_fifo;
    Alcotest.test_case "mailbox try_recv" `Quick mailbox_try_recv;
    Alcotest.test_case "resource FIFO mutex" `Quick resource_fifo_mutex;
    Alcotest.test_case "resource release unheld" `Quick resource_release_unheld;
    Alcotest.test_case "prng determinism" `Quick prng_deterministic;
    Alcotest.test_case "prng split independence" `Quick prng_split_independent;
    Alcotest.test_case "heap entries_at_min and remove" `Quick
      heap_entries_at_min_and_remove;
    Alcotest.test_case "heap releases taken payloads" `Quick
      (heap_releases_payloads 3);
    Alcotest.test_case "heap releases evicted payloads" `Quick
      (heap_releases_payloads 200);
    Alcotest.test_case "engine choice points" `Quick engine_choice_points;
    Alcotest.test_case "same instant across both queue tiers" `Quick
      engine_same_instant_across_tiers;
    Alcotest.test_case "step_seq validates enabledness" `Quick
      engine_step_seq_validates;
    Alcotest.test_case "explicit FIFO scheduler is the default" `Quick
      explicit_fifo_scheduler_is_default;
    Alcotest.test_case "deadlock names blocked waiters" `Quick
      engine_deadlock_names_waiters;
    Alcotest.test_case "daemon waiters never deadlock" `Quick
      engine_daemons_never_deadlock;
    Alcotest.test_case "deadlock report text is pinned" `Quick
      deadlock_report_text_pinned;
    Alcotest.test_case "deadlock order survives a middle wake" `Quick
      deadlock_order_after_middle_wake;
    Alcotest.test_case "blocked hides daemon waiters" `Quick
      blocked_hides_daemons;
    Alcotest.test_case "second resume rejected" `Quick second_resume_rejected;
    Alcotest.test_case "stale wake rejected" `Quick stale_wake_rejected;
    Alcotest.test_case "suspend outside a process is unhandled" `Quick
      suspend_outside_process;
    Alcotest.test_case "unnamed processes numbered" `Quick
      unnamed_processes_numbered;
    Alcotest.test_case "uncontended Cpu.use allocation budget" `Quick
      uncontended_charge_budget;
    Alcotest.test_case "control-path allocation budget" `Quick
      control_path_budget;
    Alcotest.test_case "mailbox allocation budget" `Quick mailbox_budget;
    Alcotest.test_case "event queue allocation budget" `Quick event_queue_budget;
    QCheck_alcotest.to_alcotest time_mul_matches_scale;
    QCheck_alcotest.to_alcotest heap_pop_sorted;
    QCheck_alcotest.to_alcotest heap_same_time_seq_order;
    QCheck_alcotest.to_alcotest heap_matches_sorted_list;
    QCheck_alcotest.to_alcotest heap_overflow_matches_sorted_list;
    QCheck_alcotest.to_alcotest prng_bounds;
    QCheck_alcotest.to_alcotest prng_float_range;
    Alcotest.test_case "sleep outside a process leaves the queue empty" `Quick
      sleep_outside_leaves_queue_empty;
    Alcotest.test_case "nested engine, then sleep: the sleeper is woken" `Quick
      nested_engine_then_sleep;
    QCheck_alcotest.to_alcotest int_table_matches_hashtbl;
  ]
