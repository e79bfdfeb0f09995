(* Recovery policies for remote-memory operations (§3.7).

   The paper's failure story: timeouts are the fundamental detection
   mechanism, data-transfer operations are idempotent and can simply be
   reissued, and generation numbers make server restarts safe because a
   stale descriptor fails cleanly and can be revalidated through the
   name service.  A policy packages that recipe — how many attempts,
   what per-attempt timeout, how the gap between attempts grows, and how
   to revalidate a descriptor the remote no longer recognizes. *)

type class_ = Retryable | Revalidate | Terminal

(* Which failures are worth another attempt.  [Timed_out] covers every
   fabric fault that surfaces as silence: lost or corrupted cells
   (checksum failures are discarded by the NIC and never answered),
   partitions, and crashed peers.  [Stale_generation] and [Bad_segment]
   mean the remote no longer recognizes the (segment, generation) pair —
   retrying verbatim can never succeed, but re-importing through the
   name service can.  Rights and addressing errors are programming
   errors; retrying them would only hide the bug. *)
let classify = function
  | Status.Timed_out -> Retryable
  | Status.Stale_generation | Status.Bad_segment -> Revalidate
  | Status.Ok | Status.Protection | Status.Bounds | Status.Write_inhibited
  | Status.Unpinned ->
      Terminal

type policy = {
  attempts : int;
  timeout : Sim.Time.t;
  backoff : Sim.Time.t;
  revalidate : (Descriptor.t -> bool) option;
}

(* The default backoff floor (200us) sits above the analysis layer's
   unbounded-retry lint floor (150us), so policied retry loops are never
   flagged as storms. *)
let policy ?(attempts = 4) ?(timeout = Sim.Time.ms 5)
    ?(backoff = Sim.Time.us 200) () =
  if attempts < 1 then invalid_arg "Recovery.policy: attempts < 1";
  { attempts; timeout; backoff; revalidate = None }

let timeout p = p.timeout

let multiplier = 2.0
let max_backoff = Sim.Time.ms 20

let backoff_after p ~attempt =
  let rec grow b i =
    if i <= 0 then b
    else grow (Sim.Time.min max_backoff (Sim.Time.scale b multiplier)) (i - 1)
  in
  Sim.Time.min max_backoff (grow p.backoff attempt)

let with_revalidate p f = { p with revalidate = Some f }
