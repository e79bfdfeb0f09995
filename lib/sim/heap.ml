(* Array-backed binary min-heap of timestamped events.

   Ordering is by (time, seq): the sequence number is a monotonically
   increasing tie-breaker assigned by the engine so that events scheduled
   for the same instant fire in scheduling order, keeping runs
   deterministic.

   The heap orders ints only: each entry's time, seq and the slot its
   payload occupies, in three parallel arrays.  A payload is written once,
   into a free slot of a fourth array, and stays there until it is taken;
   sifting never moves it, so it pays no write barrier.  A taken slot is
   overwritten with [dummy], so the heap never keeps a fired event's
   closure alive, and goes back on a stack of free slots. *)

type 'a entry = { time : Time.t; seq : int; payload : 'a }

type 'a t = {
  dummy : 'a;
  mutable times : Time.t array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : 'a array; (* by slot; free slots hold [dummy] *)
  mutable free : int array; (* free slots, a stack of [free_count] *)
  mutable free_count : int;
  mutable size : int;
}

let create ~dummy () =
  {
    dummy;
    times = [||];
    seqs = [||];
    slots = [||];
    payloads = [||];
    free = [||];
    free_count = 0;
    size = 0;
  }

let length h = h.size

let is_empty h = h.size = 0

(* Sifting moves a hole rather than swapping: the entry being placed is
   held in [time], [seq] and [slot] and written once, at its final
   position. *)

let set h i time seq slot =
  h.times.(i) <- time;
  h.seqs.(i) <- seq;
  h.slots.(i) <- slot

let move h ~src ~dst = set h dst h.times.(src) h.seqs.(src) h.slots.(src)

let before h i time seq =
  let ti = h.times.(i) in
  ti < time || (ti = time && h.seqs.(i) < seq)

let rec sift_up h i time seq slot =
  let parent = (i - 1) / 2 in
  if i > 0 && not (before h parent time seq) then begin
    move h ~src:parent ~dst:i;
    sift_up h parent time seq slot
  end
  else set h i time seq slot

let rec sift_down h i time seq slot =
  let left = (2 * i) + 1 in
  if left >= h.size then set h i time seq slot
  else begin
    let right = left + 1 in
    let child =
      if right < h.size && before h right h.times.(left) h.seqs.(left) then
        right
      else left
    in
    if before h child time seq then begin
      move h ~src:child ~dst:i;
      sift_down h child time seq slot
    end
    else set h i time seq slot
  end

(* Full means every slot holds a payload: double every array and put the
   new slots on the free stack. *)
let grow h =
  let capacity = Array.length h.times in
  if h.size = capacity then begin
    let next = if capacity = 0 then 16 else capacity * 2 in
    let extend a fill =
      let b = Array.make next fill in
      Array.blit a 0 b 0 capacity;
      b
    in
    h.times <- extend h.times 0;
    h.seqs <- extend h.seqs 0;
    h.slots <- extend h.slots 0;
    h.payloads <- extend h.payloads h.dummy;
    h.free <- Array.init next (fun i -> next - 1 - i);
    h.free_count <- next - capacity
  end

let push h ~time ~seq payload =
  grow h;
  h.free_count <- h.free_count - 1;
  let slot = h.free.(h.free_count) in
  h.payloads.(slot) <- payload;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) time seq slot

let check_nonempty h what =
  if h.size = 0 then invalid_arg ("Heap." ^ what ^ ": empty heap")

let min_time h =
  check_nonempty h "min_time";
  h.times.(0)

let min_seq h =
  check_nonempty h "min_seq";
  h.seqs.(0)

(* Remove the entry at position [i]: refill it with the last entry,
   sifted whichever way it belongs, and free its payload slot. *)
let delete h i =
  let slot = h.slots.(i) in
  let payload = h.payloads.(slot) in
  h.payloads.(slot) <- h.dummy;
  h.free.(h.free_count) <- slot;
  h.free_count <- h.free_count + 1;
  let last = h.size - 1 in
  h.size <- last;
  if i < last then begin
    let time = h.times.(last) and seq = h.seqs.(last) and slot = h.slots.(last) in
    if i > 0 && not (before h ((i - 1) / 2) time seq) then
      sift_up h i time seq slot
    else sift_down h i time seq slot
  end;
  payload

let take_min h =
  check_nonempty h "take_min";
  delete h 0

let entries_at_min h =
  if h.size = 0 then []
  else begin
    let time = h.times.(0) in
    let same = ref [] in
    for i = h.size - 1 downto 0 do
      if Time.equal h.times.(i) time then
        same :=
          { time; seq = h.seqs.(i); payload = h.payloads.(h.slots.(i)) } :: !same
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
      let time = h.times.(i) in
      Some { time; seq; payload = delete h i }
