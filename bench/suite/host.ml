(* The host-clock instruments. *)

(* CPU seconds of this (single-threaded) process. *)
let cpu_s () = Sys.time ()

(* Exact allocated words.  The minor collection makes the promoted and
   major counters current (they only refresh at collections); promoted
   words appear in both the minor and the major count, so they are
   taken out once.  Call it outside any timed interval. *)
let alloc_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

(* Words still reachable after a full compaction. *)
let live_words () =
  Gc.compact ();
  float_of_int (Gc.stat ()).live_words

(* Run [f] (one pass over [items] inputs) until 50 ms of CPU have
   passed; host ns and allocated words per input. *)
let per_item ~items f =
  let min_s = 0.05 in
  let w0 = alloc_words () in
  let c0 = cpu_s () in
  let reps = ref 0 in
  while !reps = 0 || cpu_s () -. c0 < min_s do
    f ();
    incr reps
  done;
  let c1 = cpu_s () in
  let w1 = alloc_words () in
  let n = float_of_int (max 1 (!reps * items)) in
  ((c1 -. c0) *. 1e9 /. n, (w1 -. w0) /. n)
