(* Wing–Gong linearizability search, P-compositional by cell.

   Per-cell events are small integers into an array; the DFS linearizes
   one precedence-minimal, specification-consistent event at a time,
   memoizing failed (remaining-set, register-value) states.  Candidates
   are tried in capture order: the capture order IS the effect order
   (serves read their values in the same atomic step that deposited
   them), so for purely physical histories the first DFS path succeeds
   without backtracking — violations require a logical operation whose
   claimed result disagrees with its physical effects. *)

type mode = Linearizable | Sequential

type cell_verdict = Cell_ok of int | Cell_violation of int | Cell_budget of int

type stats = { cells : int; events : int; explored : int; skipped : int }

type verdict =
  | Pass of stats
  | Fail of {
      cell : History.cell;
      init : History.value;
      witness : History.event list;
      cell_events : History.event list;
      stats : stats;
    }

let default_budget = 200_000

let partition events =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (e : History.event) ->
      match Hashtbl.find_opt tbl e.History.cell with
      | Some l -> l := e :: !l
      | None ->
          Hashtbl.replace tbl e.History.cell (ref [ e ]);
          order := e.History.cell :: !order)
    events;
  List.rev_map
    (fun cell -> (cell, List.rev !(Hashtbl.find tbl cell)))
    !order

(* The sequential register+CAS specification: one transition per event,
   over Known/Unknown values.  Unknown reads constrain nothing; Unknown
   writes clobber the register to an unconstrained state. *)
let step (state : History.value) (op : History.operation) :
    History.value option =
  match (op, state) with
  | History.Read History.Unknown, _ -> Some state
  | History.Read (History.Known v), History.Known s ->
      if Int32.equal s v then Some state else None
  | History.Read (History.Known v), History.Unknown ->
      Some (History.Known v)
  | History.Write v, _ -> Some v
  | History.Cas { success = true; expected; desired; _ }, History.Known s ->
      if Int32.equal s expected then Some (History.Known desired) else None
  | History.Cas { success = true; desired; _ }, History.Unknown ->
      Some (History.Known desired)
  | History.Cas { success = false; expected; witness; _ }, History.Known s ->
      if Int32.equal s expected then None
      else (
        match witness with
        | History.Known w -> if Int32.equal s w then Some state else None
        | History.Unknown -> Some state)
  | History.Cas { success = false; expected; witness; _ }, History.Unknown -> (
      match witness with
      | History.Known w ->
          if Int32.equal w expected then None else Some (History.Known w)
      | History.Unknown -> Some state)

(* Program order: an agent is sequential, so its events are totally
   ordered by invocation time (capture order breaking ties).  This holds
   per cell even under a pipelined window — all of one agent's requests
   for one cell ride the same FIFO link. *)
let program_before (a : History.event) (b : History.event) =
  String.equal a.History.agent b.History.agent
  && (Sim.Time.(a.History.inv < b.History.inv)
     || (Sim.Time.equal a.History.inv b.History.inv
        && a.History.id < b.History.id))

let precedes mode (a : History.event) (b : History.event) =
  program_before a b
  || (mode = Linearizable
     &&
     match a.History.resp with
     | Some r -> Sim.Time.(r < b.History.inv)
     | None -> false)

exception Budget_hit of int

let check_cell ~mode ?(budget = default_budget) ~init events
    =
  let evs =
    Array.of_list
      (List.sort
         (fun (a : History.event) b -> compare a.History.id b.History.id)
         events)
  in
  let n = Array.length evs in
  if n = 0 then Cell_ok 0
  else begin
    (* Precedence successors and open-predecessor counts. *)
    let succs = Array.make n [] in
    let npred = Array.make n 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && precedes mode evs.(i) evs.(j) then begin
          succs.(i) <- j :: succs.(i);
          npred.(j) <- npred.(j) + 1
        end
      done
    done;
    let mask = Bytes.make ((n + 7) / 8) '\000' in
    let set i =
      let b = Char.code (Bytes.get mask (i / 8)) in
      Bytes.set mask (i / 8) (Char.chr (b lor (1 lsl (i mod 8))))
    in
    let unset i =
      let b = Char.code (Bytes.get mask (i / 8)) in
      Bytes.set mask (i / 8) (Char.chr (b land lnot (1 lsl (i mod 8))))
    in
    let taken = Array.make n false in
    let failed = Hashtbl.create 64 in
    let encode (state : History.value) =
      match state with
      | History.Unknown -> "?"
      | History.Known v -> Int32.to_string v
    in
    let explored = ref 0 in
    let rec dfs remaining state =
      if remaining = 0 then true
      else begin
        incr explored;
        if !explored > budget then raise (Budget_hit !explored);
        let key = Bytes.to_string mask ^ "/" ^ encode state in
        if Hashtbl.mem failed key then false
        else begin
          let ok = ref false in
          let i = ref 0 in
          while (not !ok) && !i < n do
            let c = !i in
            (if (not taken.(c)) && npred.(c) = 0 then
               match step state evs.(c).History.op with
               | None -> ()
               | Some state' ->
                   taken.(c) <- true;
                   set c;
                   List.iter (fun j -> npred.(j) <- npred.(j) - 1) succs.(c);
                   if dfs (remaining - 1) state' then ok := true;
                   List.iter (fun j -> npred.(j) <- npred.(j) + 1) succs.(c);
                   unset c;
                   taken.(c) <- false);
            incr i
          done;
          if not !ok then Hashtbl.replace failed key ();
          !ok
        end
      end
    in
    match dfs n init with
    | true -> Cell_ok !explored
    | false -> Cell_violation !explored
    | exception Budget_hit k -> Cell_budget k
  end

let minimize ~mode ~init events =
  let violates evs =
    match check_cell ~mode ~init evs with
    | Cell_violation _ -> true
    | Cell_ok _ | Cell_budget _ -> false
  in
  if not (violates events) then events
  else begin
    (* Greedy 1-minimization to a fixpoint: drop any event whose removal
       keeps the violation, until no single removal does. *)
    let current = ref events in
    let progress = ref true in
    while !progress do
      progress := false;
      let rec try_drop kept = function
        | [] -> ()
        | (e : History.event) :: rest ->
            let without = List.rev_append kept rest in
            if violates without then begin
              current := without;
              progress := true
            end
            else try_drop (e :: kept) rest
      in
      try_drop [] !current
    done;
    List.sort
      (fun (a : History.event) b -> compare a.History.id b.History.id)
      !current
  end

let check ?(mode = Linearizable) history =
  let cells = partition (History.events history) in
  let stats = ref { cells = 0; events = 0; explored = 0; skipped = 0 } in
  let rec go = function
    | [] -> Pass !stats
    | (cell, events) :: rest -> (
        let init = History.init_value history cell in
        let verdict = check_cell ~mode ~init events in
        let count skipped explored =
          stats :=
            {
              cells = !stats.cells + 1;
              events = !stats.events + List.length events;
              explored = !stats.explored + explored;
              skipped = !stats.skipped + skipped;
            }
        in
        match verdict with
        | Cell_ok explored ->
            count 0 explored;
            go rest
        | Cell_budget explored ->
            count 1 explored;
            go rest
        | Cell_violation explored ->
            count 0 explored;
            let witness = minimize ~mode ~init events in
            Fail { cell; init; witness; cell_events = events; stats = !stats })
  in
  go cells

let mode_to_string = function
  | Linearizable -> "linearizable"
  | Sequential -> "sequential"

let describe = function
  | Pass { cells; events; explored; skipped } ->
      Printf.sprintf "ok: %d cells, %d events, %d states explored%s" cells
        events explored
        (if skipped > 0 then Printf.sprintf " (%d cells skipped)" skipped
         else "")
  | Fail { cell; init; witness; cell_events; stats } ->
      Printf.sprintf
        "cell %s (init %s): no valid linearization; witness [%s] (%d of %d \
         events; %d states explored)"
        (History.cell_to_string cell)
        (History.value_to_string init)
        (String.concat "; " (List.map History.event_to_string witness))
        (List.length witness) (List.length cell_events) stats.explored
