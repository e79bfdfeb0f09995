(* Array-backed binary min-heap of timestamped events.

   Ordering is by (time, seq): the sequence number is a monotonically
   increasing tie-breaker assigned by the engine so that events scheduled
   for the same instant fire in scheduling order, keeping runs
   deterministic.

   Times, seqs and payloads live in three parallel arrays, so pushing and
   taking the minimum allocate nothing (beyond growing the arrays).  A
   vacated payload slot is overwritten with [dummy] so the heap never
   keeps a fired event's closure alive. *)

type 'a entry = { time : Time.t; seq : int; payload : 'a }

type 'a t = {
  dummy : 'a;
  mutable times : Time.t array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
}

let create ~dummy () =
  { dummy; times = [||]; seqs = [||]; payloads = [||]; size = 0 }

let length h = h.size

let is_empty h = h.size = 0

(* Sifting moves a hole rather than swapping: the entry being placed is
   held in [time], [seq] and [payload] and written once, at its final
   slot, so each level costs one payload write (a write barrier), not
   two. *)

let set h i time seq payload =
  h.times.(i) <- time;
  h.seqs.(i) <- seq;
  h.payloads.(i) <- payload

let move h ~src ~dst = set h dst h.times.(src) h.seqs.(src) h.payloads.(src)

let before h i time seq =
  let ti = h.times.(i) in
  ti < time || (ti = time && h.seqs.(i) < seq)

let rec sift_up h i time seq payload =
  let parent = (i - 1) / 2 in
  if i > 0 && not (before h parent time seq) then begin
    move h ~src:parent ~dst:i;
    sift_up h parent time seq payload
  end
  else set h i time seq payload

let rec sift_down h i time seq payload =
  let left = (2 * i) + 1 in
  if left >= h.size then set h i time seq payload
  else begin
    let right = left + 1 in
    let child =
      if right < h.size && before h right h.times.(left) h.seqs.(left) then
        right
      else left
    in
    if before h child time seq then begin
      move h ~src:child ~dst:i;
      sift_down h child time seq payload
    end
    else set h i time seq payload
  end

let grow h =
  let capacity = Array.length h.times in
  if h.size = capacity then begin
    let next = if capacity = 0 then 16 else capacity * 2 in
    let times = Array.make next 0
    and seqs = Array.make next 0
    and payloads = Array.make next h.dummy in
    Array.blit h.times 0 times 0 h.size;
    Array.blit h.seqs 0 seqs 0 h.size;
    Array.blit h.payloads 0 payloads 0 h.size;
    h.times <- times;
    h.seqs <- seqs;
    h.payloads <- payloads
  end

let push h ~time ~seq payload =
  grow h;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) time seq payload

let check_nonempty h what =
  if h.size = 0 then invalid_arg ("Heap." ^ what ^ ": empty heap")

let min_time h =
  check_nonempty h "min_time";
  h.times.(0)

let min_seq h =
  check_nonempty h "min_seq";
  h.seqs.(0)

(* Refill slot [i] with the last entry, sifted whichever way it belongs,
   and clear the vacated last slot. *)
let delete h i =
  let last = h.size - 1 in
  h.size <- last;
  if i < last then begin
    let time = h.times.(last) and seq = h.seqs.(last) in
    let payload = h.payloads.(last) in
    if i > 0 && not (before h ((i - 1) / 2) time seq) then
      sift_up h i time seq payload
    else sift_down h i time seq payload
  end;
  h.payloads.(last) <- h.dummy

let take_min h =
  check_nonempty h "take_min";
  let payload = h.payloads.(0) in
  delete h 0;
  payload

let entry h i = { time = h.times.(i); seq = h.seqs.(i); payload = h.payloads.(i) }

let entries_at_min h =
  if h.size = 0 then []
  else begin
    let time = h.times.(0) in
    let same = ref [] in
    for i = h.size - 1 downto 0 do
      if Time.equal h.times.(i) time then same := entry h i :: !same
    done;
    List.sort (fun a b -> Stdlib.compare a.seq b.seq) !same
  end

let remove h ~seq =
  let rec find i =
    if i >= h.size then None
    else if h.seqs.(i) = seq then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let removed = entry h i in
      delete h i;
      Some removed
