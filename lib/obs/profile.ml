(* Host-time profiling: where the virtual clock measures the *modeled*
   system, this measures the simulator itself — wall-clock seconds and
   GC allocation per named phase.  It is the instrument behind
   [bench --host] and the events/sec baseline that the batched-engine
   roadmap item must beat. *)

type sample = {
  wall_s : float;
  minor_words : float;
  promoted_words : float;
  major_words : float;
}

type t = { mutable phases : (string * sample) list (* newest first *) }

let create () = { phases = [] }

let record t name f =
  (* A minor collection at each boundary makes the [quick_stat] counters
     current: promoted and major words only refresh at collections, so
     without it [total_words] can mix an exact minor count with stale
     older-generation ones and come out negative.  Both collections run
     outside the timed interval. *)
  Gc.minor ();
  let gc0 = Gc.quick_stat () in
  let wall0 = Unix.gettimeofday () in
  let finish () =
    let wall1 = Unix.gettimeofday () in
    Gc.minor ();
    let gc1 = Gc.quick_stat () in
    t.phases <-
      ( name,
        {
          wall_s = wall1 -. wall0;
          minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
          promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
          major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
        } )
      :: t.phases
  in
  match f () with
  | result ->
      finish ();
      result
  | exception e ->
      finish ();
      raise e

let phases t = List.rev t.phases
let phase t name = List.assoc_opt name t.phases

let total_words s = s.minor_words +. s.major_words -. s.promoted_words

let total t =
  List.fold_left
    (fun acc (_, s) ->
      {
        wall_s = acc.wall_s +. s.wall_s;
        minor_words = acc.minor_words +. s.minor_words;
        promoted_words = acc.promoted_words +. s.promoted_words;
        major_words = acc.major_words +. s.major_words;
      })
    { wall_s = 0.; minor_words = 0.; promoted_words = 0.; major_words = 0. }
    t.phases

let report t =
  let buf = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "%-24s %10s %14s %14s" "phase" "wall ms" "alloc words" "promoted";
  List.iter
    (fun (name, s) ->
      line "%-24s %10.2f %14.0f %14.0f" name (s.wall_s *. 1e3) (total_words s)
        s.promoted_words)
    (phases t);
  let sum = total t in
  line "%-24s %10.2f %14.0f %14.0f" "total" (sum.wall_s *. 1e3)
    (total_words sum) sum.promoted_words;
  Buffer.contents buf
