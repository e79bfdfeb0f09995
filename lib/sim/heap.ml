(* Two-tier queue of timestamped events.

   Ordering is by (time, seq): the sequence number is a monotonically
   increasing tie-breaker assigned by the engine so that events scheduled
   for the same instant fire in scheduling order, keeping runs
   deterministic.

   Both tiers order ints only: each entry's time, seq and the slot its
   payload occupies, in three parallel arrays per tier.

   - The near tier holds up to [near_capacity] entries sorted by
     (time, seq) with the minimum last: a take is a decrement, and a push
     is an insertion scan from the minimum end, moving only the entries
     that come before the new one.  The simulator's pending depth mostly
     stays well under the capacity, so most pushes and takes touch
     nothing else.
   - The overflow tier is a binary min-heap.  It receives only entries
     evicted from a full near tier: the later of the new entry and the
     near tier's maximum goes there.  Nothing orders the two tiers
     against each other, so a take compares their minima.

   A payload is written once, into a free slot of a payload array shared
   by both tiers, and stays there until it is taken: moving entries
   moves ints and pays no write barrier.  A taken slot is overwritten
   with [dummy], so the queue never keeps a fired event's closure alive,
   and goes back on a stack of free slots. *)

type 'a entry = { time : Time.t; seq : int; payload : 'a }
type key = { mutable key_time : Time.t; mutable key_seq : int }

(* At most 44 events pend at once on the data-structure workloads, 60 on
   the data-structure campaign; the name-lookup workload peaks at 128,
   mostly at 7 to 14. *)
let near_capacity = 64

(* Entry [i] of a tier is (times.(i), seqs.(i)), its payload in slot
   slots.(i), for [i < count]. *)
type tier = {
  mutable times : Time.t array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable count : int;
}

type 'a t = {
  dummy : 'a;
  taken : key;
  near : tier; (* sorted: entry [count - 1] is the minimum, 0 the maximum *)
  heap : tier; (* a binary min-heap *)
  mutable payloads : 'a array; (* by slot; free slots hold [dummy] *)
  mutable free : int array; (* free slots, a stack of [free_count] *)
  mutable free_count : int;
}

let tier capacity =
  {
    times = Array.make capacity 0;
    seqs = Array.make capacity 0;
    slots = Array.make capacity 0;
    count = 0;
  }

let create ~dummy () =
  {
    dummy;
    taken = { key_time = Time.zero; key_seq = -1 };
    near = tier near_capacity;
    heap = tier 0;
    payloads = [||];
    free = [||];
    free_count = 0;
  }

let length h = h.near.count + h.heap.count
let is_empty h = length h = 0
let taken h = h.taken

(* ---------------- Payload slots ---------------- *)

(* No free slot means every slot holds a payload: double the payload
   array and put the new slots on the free stack. *)
let grow h =
  let capacity = Array.length h.payloads in
  let next = if capacity = 0 then 16 else capacity * 2 in
  let payloads = Array.make next h.dummy in
  Array.blit h.payloads 0 payloads 0 capacity;
  h.payloads <- payloads;
  h.free <- Array.init next (fun i -> next - 1 - i);
  h.free_count <- next - capacity

let[@inline] claim h payload =
  if h.free_count = 0 then grow h;
  h.free_count <- h.free_count - 1;
  let slot = h.free.(h.free_count) in
  h.payloads.(slot) <- payload;
  slot

let[@inline] release h slot =
  let payload = h.payloads.(slot) in
  h.payloads.(slot) <- h.dummy;
  h.free.(h.free_count) <- slot;
  h.free_count <- h.free_count + 1;
  payload

(* ---------------- Entries of a tier ---------------- *)

(* Entries move as a hole rather than by swaps: the entry being placed
   is held in [time], [seq] and [slot] and written once, at its final
   position. *)

let[@inline] set t i time seq slot =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot

let[@inline] move t ~src ~dst = set t dst t.times.(src) t.seqs.(src) t.slots.(src)

(* Entry [i] comes before (time, seq). *)
let[@inline] before t i time seq =
  let ti = t.times.(i) in
  ti < time || (ti = time && t.seqs.(i) < seq)

(* ---------------- Overflow tier ---------------- *)

let rec sift_up t i time seq slot =
  let parent = (i - 1) / 2 in
  if i > 0 && not (before t parent time seq) then begin
    move t ~src:parent ~dst:i;
    sift_up t parent time seq slot
  end
  else set t i time seq slot

let rec sift_down t i time seq slot =
  let left = (2 * i) + 1 in
  if left >= t.count then set t i time seq slot
  else begin
    let right = left + 1 in
    let child =
      if right < t.count && before t right t.times.(left) t.seqs.(left) then
        right
      else left
    in
    if before t child time seq then begin
      move t ~src:child ~dst:i;
      sift_down t child time seq slot
    end
    else set t i time seq slot
  end

let overflow t time seq slot =
  let capacity = Array.length t.times in
  if t.count = capacity then begin
    let next = if capacity = 0 then 16 else capacity * 2 in
    let extend a =
      let b = Array.make next 0 in
      Array.blit a 0 b 0 capacity;
      b
    in
    t.times <- extend t.times;
    t.seqs <- extend t.seqs;
    t.slots <- extend t.slots
  end;
  t.count <- t.count + 1;
  sift_up t (t.count - 1) time seq slot

(* Remove the entry at position [i]: refill it with the last entry,
   sifted whichever way it belongs.  Returns the removed entry's slot. *)
let delete t i =
  let removed = t.slots.(i) in
  let last = t.count - 1 in
  t.count <- last;
  if i < last then begin
    let time = t.times.(last) and seq = t.seqs.(last) and slot = t.slots.(last) in
    if i > 0 && not (before t ((i - 1) / 2) time seq) then
      sift_up t i time seq slot
    else sift_down t i time seq slot
  end;
  removed

(* ---------------- Near tier ---------------- *)

(* Fill the hole at [i] from the minimum end: entries below it that come
   before the new one move up a place. *)
let rec insert_from_min t i time seq slot =
  if i > 0 && before t (i - 1) time seq then begin
    move t ~src:(i - 1) ~dst:i;
    insert_from_min t (i - 1) time seq slot
  end
  else set t i time seq slot

(* Fill the hole at [i] from the maximum end: entries above it that come
   after the new one move down a place. *)
let rec insert_from_max t i time seq slot =
  if i + 1 < t.count && not (before t (i + 1) time seq) then begin
    move t ~src:(i + 1) ~dst:i;
    insert_from_max t (i + 1) time seq slot
  end
  else set t i time seq slot

let remove_sorted t i =
  let removed = t.slots.(i) in
  for j = i to t.count - 2 do
    move t ~src:(j + 1) ~dst:j
  done;
  t.count <- t.count - 1;
  removed

(* ---------------- Queue ---------------- *)

(* The smallest entry is the near tier's last one. *)
let[@inline] near_first h =
  let n = h.near.count - 1 in
  n >= 0
  && (h.heap.count = 0 || not (before h.heap 0 h.near.times.(n) h.near.seqs.(n)))

let push h ~time ~seq payload =
  let slot = claim h payload in
  let near = h.near in
  if near.count < near_capacity then begin
    near.count <- near.count + 1;
    insert_from_min near (near.count - 1) time seq slot
  end
  else if before near 0 time seq then overflow h.heap time seq slot
  else begin
    overflow h.heap near.times.(0) near.seqs.(0) near.slots.(0);
    insert_from_max near 0 time seq slot
  end

let take h time seq slot =
  h.taken.key_time <- time;
  h.taken.key_seq <- seq;
  release h slot

let nothing_due h =
  h.taken.key_seq <- -1;
  h.dummy

let take_min h ~until =
  if near_first h then begin
    let near = h.near in
    let i = near.count - 1 in
    let time = near.times.(i) in
    if time > until then nothing_due h
    else begin
      near.count <- i;
      take h time near.seqs.(i) near.slots.(i)
    end
  end
  else begin
    let heap = h.heap in
    if heap.count = 0 || heap.times.(0) > until then nothing_due h
    else begin
      let time = heap.times.(0) and seq = heap.seqs.(0) in
      take h time seq (delete heap 0)
    end
  end

let entries_at_min h =
  if is_empty h then []
  else begin
    let time =
      if near_first h then h.near.times.(h.near.count - 1) else h.heap.times.(0)
    in
    let collect t acc =
      let acc = ref acc in
      for i = 0 to t.count - 1 do
        if Time.equal t.times.(i) time then
          acc := { time; seq = t.seqs.(i); payload = h.payloads.(t.slots.(i)) } :: !acc
      done;
      !acc
    in
    List.sort (fun a b -> Int.compare a.seq b.seq) (collect h.near (collect h.heap []))
  end

let remove h ~seq =
  let rec find t i =
    if i >= t.count then -1 else if t.seqs.(i) = seq then i else find t (i + 1)
  in
  let found t remove_at i =
    let time = t.times.(i) in
    Some { time; seq; payload = release h (remove_at t i) }
  in
  let i = find h.near 0 in
  if i >= 0 then found h.near remove_sorted i
  else
    let i = find h.heap 0 in
    if i < 0 then None else found h.heap delete i
