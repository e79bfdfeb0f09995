type finding = {
  rule : string;
  agent : string;
  key : Access.seg_key;
  detail : string;
}

let poll_threshold = 8

(* A rejection's status: what a validation at the issuer or the
   exporter refused, never [Ok] or the issuer's own timeout. *)
let rule_of_status = function
  | Rmem.Status.Stale_generation -> "stale-generation"
  | Rmem.Status.Bad_segment -> "revoked-segment"
  | Rmem.Status.Protection -> "rights"
  | Rmem.Status.Bounds -> "bounds"
  | Rmem.Status.Write_inhibited -> "write-inhibit"
  | Rmem.Status.Unpinned -> "unpinned"
  | Rmem.Status.Ok | Rmem.Status.Timed_out -> invalid_arg "Lint: not a rejection"

let op_name = function
  | Rmem.Rights.Read_op -> "READ"
  | Rmem.Rights.Write_op -> "WRITE"
  | Rmem.Rights.Cas_op -> "CAS"

(* Each key with its number of occurrences, in first-occurrence
   order. *)
let tally keys =
  let counts = Hashtbl.create 16 in
  List.filter_map
    (fun k ->
      match Hashtbl.find_opt counts k with
      | Some n ->
          incr n;
          None
      | None ->
          let n = ref 1 in
          Hashtbl.replace counts k n;
          Some (k, n))
    keys
  |> List.map (fun (k, n) -> (k, !n))

let check monitor =
  let findings = ref [] in
  let seen = Hashtbl.create 16 in
  let add rule agent key detail =
    if not (Hashtbl.mem seen (rule, agent, key)) then begin
      Hashtbl.replace seen (rule, agent, key) ();
      findings := { rule; agent; key; detail } :: !findings
    end
  in
  (* Rejections the protocol absorbed — a stale descriptor retried, a
     rights probe, an out-of-bounds request, a dropped write. *)
  List.iter
    (fun (r : Monitor.rejection) ->
      let site = match r.site with `Issue -> "locally" | `Serve -> "at the exporter" in
      add (rule_of_status r.status) r.agent_name r.key
        (Printf.sprintf "%s [%d..%d) rejected %s: %s" (op_name r.op)
           r.off (r.off + r.count) site
           (Rmem.Status.to_string r.status)))
    (Monitor.rejections monitor);
  (* Notify-policy misuse: a reader hammering one location of a segment
     whose policy can never notify it is polling where the control-
     transfer machinery was the point. *)
  let polls =
    tally
      (List.filter_map
         (fun (a : Access.t) ->
           match (a.kind, a.origin) with
           | Access.Load, Access.Meta Rmem.Rights.Read_op ->
               Some (a.agent_name, a.key, a.off, a.count)
           | _ -> None)
         (Monitor.accesses monitor))
  in
  List.iter
    (fun ((agent, key, off, count), n) ->
      if n >= poll_threshold then
        match Monitor.policy_of monitor key with
        | Some Rmem.Segment.Never ->
            add "poll-never" agent key
              (Printf.sprintf
                 "%d identical READs of [%d..%d) on a notify:never segment"
                 n off (off + count))
        | Some (Rmem.Segment.Always | Rmem.Segment.Conditional) | None -> ())
    polls;
  (* The dual misuse: bulk WRITEs into a notify:always segment raise a
     control transfer per burst — the sender should have asked for
     notify:conditional and a single doorbell. *)
  let storms =
    tally
      (List.filter_map
         (fun (a : Access.t) ->
           match (a.kind, a.origin, Monitor.policy_of monitor a.key) with
           | ( Access.Store,
               Access.Meta Rmem.Rights.Write_op,
               Some Rmem.Segment.Always ) ->
               Some (a.agent_name, a.key)
           | _ -> None)
         (Monitor.accesses monitor))
  in
  List.iter
    (fun ((agent, key), n) ->
      if n >= poll_threshold then
        add "notify-storm" agent key
          (Printf.sprintf
             "%d WRITE bursts served on a notify:always segment (one \
              notification each)"
             n))
    storms;
  (* Spinning on a lock word: a long run of failed CAS with no backoff
     pause and no other traffic is the paper's anti-idiom — retry with
     backoff, or hand the word a notification. *)
  List.iter
    (fun ((agent, key, off), worst) ->
      if worst >= poll_threshold then
        add "unbounded-retry" agent key
          (Printf.sprintf
             "%d consecutive failed CAS on word %d with no backoff" worst off))
    (Monitor.worst_cas_retries monitor);
  List.rev !findings

let describe f =
  Printf.sprintf "[%s] %s on %s: %s" f.rule f.agent
    (Access.key_to_string f.key)
    f.detail
