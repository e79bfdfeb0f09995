(* Stateless model checking over the sim engine's same-instant choice
   points; the .mli describes the three reductions and the checks.

   A run is re-executed from scratch for every schedule: a branch is a
   prefix of decisions (indices into the FIFO-ordered enabled list at
   each choice point) and everything beyond the prefix falls back to
   FIFO.  Dependence is the race detector's: two accesses conflict when
   they overlap in the same segment and are not both loads.
   Interactions not mediated by monitored memory (pure mailbox traffic,
   say) are deliberately invisible to the reduction — same scope as the
   race detector — which the cone-wide conflict test compensates for in
   practice. *)

type config = { budget : int; max_depth : int; max_events : int }

let default_config = { budget = 2000; max_depth = 64; max_events = 50_000 }

type failure =
  | Deadlock of string
  | Exception of string
  | Diverged
  | Invariant_violated of string
  | Non_linearizable of string
  | New_race of string
  | New_finding of string

let describe_failure = function
  | Deadlock report -> report
  | Exception msg -> "uncaught exception: " ^ msg
  | Diverged -> "diverged: per-run event bound exceeded (livelock?)"
  | Invariant_violated name -> "invariant violated: " ^ name
  | Non_linearizable desc -> "history not linearizable: " ^ desc
  | New_race desc -> "race not present under FIFO: " ^ desc
  | New_finding desc -> "finding not present under FIFO: " ^ desc

let failure_kind = function
  | Deadlock _ -> "deadlock"
  | Exception _ -> "exception"
  | Diverged -> "diverged"
  | Invariant_violated _ -> "invariant"
  | Non_linearizable _ -> "linearizability"
  | New_race _ -> "race"
  | New_finding _ -> "finding"

type outcome = {
  schedule : Schedule.t;
  choice_points : int;
  failure : failure option;
}

let outcome_status o =
  match o.failure with
  | None -> ("ok", "")
  | Some f -> (failure_kind f, describe_failure f)

type stats = {
  mutable executed : int;
  mutable distinct : int;
  mutable redundant : int;
  mutable pruned_dpor : int;
  mutable pruned_sleep : int;
  mutable deferred : int;
  mutable failing : int;
  mutable max_choice_points : int;
  mutable budget_exhausted : bool;
}

type result = {
  workload : string;
  stats : stats;
  baseline : outcome;
  failures : outcome list;  (* capped at [max_reported]; see stats.failing *)
}

let max_reported = 16

(* ---------------- access summaries and conflicts ---------------- *)

(* What DPOR needs of an access: where and whether it can write, plus
   the acting agent and kind — not for the conflict relation, but as
   the event label in trace hashing: two traces are Mazurkiewicz
   -equivalent only as permutations of the same *labeled* events, and
   without the agent two different agents' CASes on one word would
   alias, collapsing genuinely different serve orders into one
   "redundant" class. *)
type touch = {
  key : Access.seg_key;
  agent : int;
  kind : Access.kind;
  writes : bool;
  off : int;
  count : int;
}

type summary = touch list

let summarize accesses =
  List.map
    (fun (a : Access.t) ->
      {
        key = a.key;
        agent = a.agent;
        kind = a.kind;
        writes = (match a.kind with Access.Load -> false | _ -> true);
        off = a.off;
        count = a.count;
      })
    accesses

let touches_conflict a b =
  (a.writes || b.writes)
  && a.key = b.key
  && a.count > 0 && b.count > 0
  && a.off < b.off + b.count
  && b.off < a.off + a.count

let summaries_conflict s1 s2 =
  List.exists (fun a -> List.exists (touches_conflict a) s2) s1

(* ---------------- per-run recording ---------------- *)

type event = { seq : int; own : summary }

type cp = {
  position : int;
  enabled : int list;  (* FIFO order *)
  chosen : int;  (* index into [enabled] *)
  asleep : (int * summary) list;  (* still-sleeping alternatives *)
}

type run_status =
  | Completed
  | Deadlocked of string
  | Raised of string
  | Ran_off  (* exceeded max_events *)

type run = {
  decisions : Schedule.t;
  cps : cp list;  (* in choice-point order *)
  events : event list;  (* in firing order *)
  cones : (int, summary) Hashtbl.t;  (* seq -> causal-cone accesses *)
  status : run_status;
  invariant_failures : string list;
  lin_failure : string option;  (* Linearize verdict on the history *)
  races : Race.t list;
  findings : Lint.finding list;
}

exception Certificate_mismatch of string

(* Execute one schedule from scratch.  [directed] pins the first
   choice points; [sleep] (active from the last directed choice point
   on) suppresses already-explored siblings until a conflicting access
   wakes them. *)
let execute prepare ~directed ~sleep:branch_sleep ~max_events =
  let prep : Scenarios.prep = prepare () in
  let engine = Cluster.Testbed.engine prep.testbed in
  Sim.Engine.set_parent_tracking engine true;
  Sim.Engine.set_deadlock_detection engine false;
  let monitor = prep.monitor in
  let directed = Array.of_list directed in
  let decisions = ref [] in
  let cps = ref [] in
  let events = ref [] in
  let sleep = ref (if Array.length directed = 0 then branch_sleep else []) in
  let fired = ref 0 in
  let status = ref Completed in
  (try
     let running = ref true in
     while !running do
       if !fired >= max_events then begin
         status := Ran_off;
         running := false
       end
       else
         match Sim.Engine.next_enabled engine with
         | None ->
             if not (prep.finished ()) then
               status :=
                 Deadlocked
                   (Sim.Engine.deadlock_report (Sim.Engine.blocked engine));
             running := false
         | Some { Sim.Engine.enabled; _ } ->
             let seq =
               match enabled with
               | [ seq ] -> seq
               | _ ->
                   let position = List.length !cps in
                   let count = List.length enabled in
                   let index =
                     if position < Array.length directed then begin
                       let d = directed.(position) in
                       if d.Schedule.count <> count || d.Schedule.index >= count
                       then
                         raise
                           (Certificate_mismatch
                              (Printf.sprintf
                                 "choice point %d: certificate says %d/%d, \
                                  run offers %d enabled events"
                                 position d.Schedule.index d.Schedule.count
                                 count));
                       d.Schedule.index
                     end
                     else 0
                   in
                   (* The sleep set belongs to the branch point: it
                      starts mattering at the last directed choice. *)
                   if position = Array.length directed - 1 then
                     sleep := branch_sleep;
                   cps :=
                     { position; enabled; chosen = index; asleep = !sleep }
                     :: !cps;
                   decisions := { Schedule.index; count } :: !decisions;
                   List.nth enabled index
             in
             let before = Monitor.access_count monitor in
             let stepped = Sim.Engine.step_seq engine seq in
             assert stepped;
             let own =
               summarize (Monitor.accesses_from monitor ~id:before)
             in
             if own <> [] then
               sleep :=
                 List.filter
                   (fun (_, cone) -> not (summaries_conflict own cone))
                   !sleep;
             events := { seq; own } :: !events;
             incr fired
     done
   with
  | Certificate_mismatch _ as exn -> raise exn
  | exn -> status := Raised (Printexc.to_string exn));
  let events = List.rev !events in
  (* Causal cones: every access charges the event that recorded it
     and all its scheduling ancestors. *)
  let cones = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.own <> [] then begin
        let rec charge seq =
          let cur = Option.value (Hashtbl.find_opt cones seq) ~default:[] in
          Hashtbl.replace cones seq (e.own @ cur);
          match Sim.Engine.parent engine seq with
          | Some p -> charge p
          | None -> ()
        in
        charge e.seq
      end)
    events;
  let races, findings, invariant_failures, lin_failure =
    match !status with
    | Completed ->
        ( Race.find monitor,
          Lint.check monitor,
          List.filter_map
            (fun (name, check) -> if check () then None else Some name)
            prep.invariants,
          match Linearize.check (Monitor.history monitor) with
          | Linearize.Pass _ -> None
          | Linearize.Fail _ as verdict ->
              Some (Linearize.describe verdict) )
    | _ -> ([], [], [], None)
  in
  {
    decisions = List.rev !decisions;
    cps = List.rev !cps;
    events;
    cones;
    status = !status;
    invariant_failures;
    lin_failure;
    races;
    findings;
  }

(* ---------------- trace-equivalence hashing ---------------- *)

(* FNV-style fold; Hashtbl.hash is avoided because its node/depth
   limits would make distinct deep traces collide systematically. *)
let mix h x = ((h * 16777619) lxor x) land max_int

let hash_touch h t =
  let h = mix h t.key.Access.home in
  let h = mix h t.key.Access.seg in
  let h = mix h t.key.Access.gen in
  let h = mix h t.agent in
  let h =
    mix h
      (match t.kind with Access.Load -> 3 | Access.Store -> 7 | Access.Atomic -> 11)
  in
  let h = mix h t.off in
  mix h t.count

let fingerprint own = List.fold_left hash_touch 0x811c9dc5 own

let hash_string h s =
  String.fold_left (fun h c -> mix h (Char.code c)) h s

(* Canonical hash of the run: the Foata normal form of its access
   trace — each access-bearing event at one more than the highest
   layer of an earlier conflicting event — hashed as the sorted
   multiset of (layer, fingerprint), plus the run status.  Equivalent
   interleavings (only independent events reordered) produce the same
   layers and so the same hash. *)
let canonical_hash run =
  let layered = ref [] in
  (* (layer, fingerprint, summary) for access-bearing events *)
  List.iter
    (fun e ->
      if e.own <> [] then begin
        let layer =
          List.fold_left
            (fun acc (l, _, summary) ->
              if summaries_conflict e.own summary then Stdlib.max acc l else acc)
            0 !layered
          + 1
        in
        layered := (layer, fingerprint e.own, e.own) :: !layered
      end)
    run.events;
  let shape =
    List.map (fun (l, fp, _) -> (l, fp)) !layered
    |> List.sort Stdlib.compare
  in
  let h = List.fold_left (fun h (l, fp) -> mix (mix h l) fp) 0x811c9dc5 shape in
  match run.status with
  | Completed -> mix h 0
  | Deadlocked report -> hash_string (mix h 1) report
  | Raised msg -> hash_string (mix h 2) msg
  | Ran_off -> mix h 3

(* ---------------- classification ---------------- *)

let classify run ~baseline_races ~baseline_rules =
  match run.status with
  | Deadlocked report -> Some (Deadlock report)
  | Raised msg -> Some (Exception msg)
  | Ran_off -> Some Diverged
  | Completed -> (
      match run.invariant_failures with
      | name :: _ -> Some (Invariant_violated name)
      | [] -> (
          match run.lin_failure with
          | Some desc -> Some (Non_linearizable desc)
          | None -> (
          match
            if baseline_races then []
            else run.races
          with
          | race :: _ -> Some (New_race (Race.describe race))
          | [] -> (
              match
                List.filter
                  (fun (f : Lint.finding) ->
                    not (List.mem f.rule baseline_rules))
                  run.findings
              with
              | f :: _ -> Some (New_finding (Lint.describe f))
              | [] -> None))))

(* The FIFO baseline's races and finding rules are the single-schedule
   detector's view; new ones found elsewhere count as
   schedule-dependent. *)
let reference_of run =
  (run.races <> [], List.map (fun (f : Lint.finding) -> f.rule) run.findings)

let outcome_of run (baseline_races, baseline_rules) =
  {
    schedule = run.decisions;
    choice_points = List.length run.cps;
    failure = classify run ~baseline_races ~baseline_rules;
  }

(* ---------------- the DFS driver ---------------- *)

type branch = {
  directed : Schedule.t;
  br_sleep : (int * summary) list;
}

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let explore ?(config = default_config) name prepare =
  let stats =
    {
      executed = 0;
      distinct = 0;
      redundant = 0;
      pruned_dpor = 0;
      pruned_sleep = 0;
      deferred = 0;
      failing = 0;
      max_choice_points = 0;
      budget_exhausted = false;
    }
  in
  let seen = Hashtbl.create 256 in
  let stack = ref [ { directed = Schedule.empty; br_sleep = [] } ] in
  let failures = ref [] in
  let baseline = ref None in
  while !stack <> [] && stats.executed < config.budget do
    match !stack with
    | [] -> assert false
    | branch :: rest ->
        stack := rest;
        let run =
          execute prepare ~directed:branch.directed ~sleep:branch.br_sleep
            ~max_events:config.max_events
        in
        stats.executed <- stats.executed + 1;
        (* The first run is the FIFO baseline. *)
        let reference =
          match !baseline with
          | Some (_, reference) -> reference
          | None ->
              let reference = reference_of run in
              baseline := Some (outcome_of run reference, reference);
              reference
        in
        let cp_count = List.length run.cps in
        if cp_count > stats.max_choice_points then
          stats.max_choice_points <- cp_count;
        let h = canonical_hash run in
        if Hashtbl.mem seen h then stats.redundant <- stats.redundant + 1
        else begin
          Hashtbl.add seen h ();
          stats.distinct <- stats.distinct + 1;
          let outcome = outcome_of run reference in
          (match outcome.failure with
          | Some _ ->
              stats.failing <- stats.failing + 1;
              if List.length !failures < max_reported then
                failures := outcome :: !failures
          | None -> ());
          (* Expand: defer conflicting alternatives at every choice
             point beyond this branch's own prefix. *)
          let n_directed = Schedule.length branch.directed in
          List.iter
            (fun cp ->
              if cp.position >= n_directed && cp.position < config.max_depth
              then begin
                let enabled = Array.of_list cp.enabled in
                let count = Array.length enabled in
                let cone_of seq =
                  Option.value (Hashtbl.find_opt run.cones seq) ~default:[]
                in
                let chosen_seq = enabled.(cp.chosen) in
                let sleep_acc =
                  ref ((chosen_seq, cone_of chosen_seq) :: cp.asleep)
                in
                Array.iteri
                  (fun i seq ->
                    if i <> cp.chosen then
                      if List.mem_assoc seq cp.asleep then
                        stats.pruned_sleep <- stats.pruned_sleep + 1
                      else begin
                        let fired = Hashtbl.mem run.cones seq in
                        let dependent =
                          (* Never fired (deadlock/divergence cut the
                             run short): nothing known, stay
                             conservative. *)
                          (not fired)
                          ||
                          let cone = cone_of seq in
                          Array.exists
                            (fun other ->
                              other <> seq
                              && summaries_conflict cone (cone_of other))
                            enabled
                        in
                        if not dependent then
                          stats.pruned_dpor <- stats.pruned_dpor + 1
                        else begin
                          stats.deferred <- stats.deferred + 1;
                          stack :=
                            {
                              directed =
                                take cp.position run.decisions
                                @ [ { Schedule.index = i; count } ];
                              br_sleep = !sleep_acc;
                            }
                            :: !stack;
                          sleep_acc := (seq, cone_of seq) :: !sleep_acc
                        end
                      end)
                  enabled
              end)
            run.cps
        end
  done;
  if !stack <> [] then stats.budget_exhausted <- true;
  let baseline =
    match !baseline with Some (b, _) -> b | None -> assert false
  in
  { workload = name; stats; baseline; failures = List.rev !failures }

(* ---------------- deterministic replay ---------------- *)

let replay ?(config = default_config) prepare certificate =
  let run directed =
    execute prepare ~directed ~sleep:[] ~max_events:config.max_events
  in
  let reference = reference_of (run []) in
  outcome_of (run certificate) reference

(* ---------------- confirming a seeded bug ---------------- *)

let confirm ?config ~kind prepare r =
  let of_kind o = fst (outcome_status o) = kind in
  match (r.baseline.failure, List.find_opt of_kind r.failures) with
  | Some f, _ -> Error ("FIFO baseline failed: " ^ describe_failure f)
  | None, None ->
      Error
        (Printf.sprintf "no %s failure in %d schedule(s), %d failing" kind
           r.stats.executed r.stats.failing)
  | None, Some first ->
      let got = fst (outcome_status (replay ?config prepare first.schedule)) in
      if got = kind then Ok first
      else
        Error
          (Printf.sprintf "certificate %s replayed %s, expected %s"
             (Schedule.to_string first.schedule)
             got kind)
