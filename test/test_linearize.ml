(* The linearizability checker: sequential register+CAS specification,
   real-time vs program-order precedence (linearizable vs SC mode),
   pending operations, witness minimality, the partitioner's
   edge-preservation contract, and the seeded double-apply shape. *)

module H = Analysis.History
module L = Analysis.Linearize

let check_bool = Alcotest.(check bool)

let key = { Analysis.Access.home = 0; seg = 0; gen = 1 }
let cell = { H.key; word = 0 }

let ev ?(agent = "a") ?(cell = cell) ?(logical = false) id op ~inv ~resp =
  {
    H.id;
    agent;
    cell;
    op;
    inv = Sim.Time.us inv;
    resp = Option.map Sim.Time.us resp;
    logical;
  }

let known v = H.Known (Int32.of_int v)

let is_violation = function L.Cell_violation _ -> true | _ -> false
let is_ok = function L.Cell_ok _ -> true | _ -> false

let check_cell ?(mode = L.Linearizable) evs = L.check_cell ~mode ~init:(known 0) evs

(* ---------------- the sequential specification ---------------- *)

let register_spec () =
  let w = ev 0 (H.Write (known 1)) ~inv:0 ~resp:(Some 1) in
  let r v = ev 1 ~agent:"b" (H.Read (known v)) ~inv:2 ~resp:(Some 3) in
  check_bool "write then read back" true (is_ok (check_cell [ w; r 1 ]));
  check_bool "read of a never-written value" true
    (is_violation (check_cell [ w; r 7 ]));
  check_bool "unknown read constrains nothing" true
    (is_ok (check_cell [ w; ev 1 ~agent:"b" (H.Read H.Unknown) ~inv:2 ~resp:(Some 3) ]));
  (* A failed CAS must witness the register value it observed; claiming
     failure while the state equals [expected] is inconsistent. *)
  let cas_ok =
    ev 0 (H.Cas { expected = 0l; desired = 1l; success = true; witness = known 0 })
      ~inv:0 ~resp:(Some 1)
  in
  let cas_fail w =
    ev 1 ~agent:"b"
      (H.Cas { expected = 0l; desired = 5l; success = false; witness = known w })
      ~inv:2 ~resp:(Some 3)
  in
  check_bool "cas fail with correct witness" true
    (is_ok (check_cell [ cas_ok; cas_fail 1 ]));
  check_bool "cas fail while state matches expected" true
    (is_violation (check_cell [ cas_ok; cas_fail 0 ]))

let pending_linearizes_anywhere () =
  (* A write whose reply never arrived precedes nothing, so a read of
     the old value can be ordered before it; the same write completed
     pins the real-time order and refutes the read. *)
  let r = ev 1 ~agent:"b" (H.Read (known 0)) ~inv:2 ~resp:(Some 3) in
  check_bool "pending write floats" true
    (is_ok (check_cell [ ev 0 (H.Write (known 1)) ~inv:0 ~resp:None; r ]));
  check_bool "completed write pins order" true
    (is_violation (check_cell [ ev 0 (H.Write (known 1)) ~inv:0 ~resp:(Some 1); r ]))

let sc_mode_drops_real_time () =
  let evs =
    [
      ev 0 (H.Write (known 1)) ~inv:0 ~resp:(Some 1);
      ev 1 ~agent:"b" (H.Read (known 0)) ~inv:2 ~resp:(Some 3);
    ]
  in
  check_bool "stale read violates linearizability" true
    (is_violation (check_cell ~mode:L.Linearizable evs));
  check_bool "stale read is sequentially consistent" true
    (is_ok (check_cell ~mode:L.Sequential evs));
  (* Program order binds in both modes. *)
  let po =
    [
      ev 0 (H.Write (known 1)) ~inv:0 ~resp:(Some 1);
      ev 1 (H.Read (known 0)) ~inv:2 ~resp:(Some 3);
    ]
  in
  check_bool "same-agent stale read violates SC too" true
    (is_violation (check_cell ~mode:L.Sequential po))

(* The client-facing shape of the seeded cas_double_apply bug: the
   wrapper reports one successful CAS(0->1), yet B's two operations
   prove memory absorbed it twice. *)
let double_apply_events () =
  [
    ev 0 ~agent:"a" ~logical:true
      (H.Cas { expected = 0l; desired = 1l; success = true; witness = known 0 })
      ~inv:0 ~resp:(Some 10);
    ev 1 ~agent:"b"
      (H.Cas { expected = 1l; desired = 0l; success = true; witness = known 1 })
      ~inv:2 ~resp:(Some 4);
    ev 2 ~agent:"b"
      (H.Cas { expected = 0l; desired = 5l; success = false; witness = known 1 })
      ~inv:5 ~resp:(Some 7);
  ]

let double_apply_shape () =
  let evs = double_apply_events () in
  check_bool "double apply is not linearizable" true
    (is_violation (check_cell evs))

let witness_is_one_minimal () =
  let evs = double_apply_events () in
  let w = L.minimize ~mode:L.Linearizable ~init:(known 0) evs in
  check_bool "witness still violates" true (is_violation (check_cell w));
  check_bool "witness nonempty" true (w <> []);
  List.iter
    (fun dropped ->
      let rest = List.filter (fun e -> e.H.id <> dropped.H.id) w in
      check_bool
        (Printf.sprintf "dropping event %d linearizes" dropped.H.id)
        true
        (not (is_violation (check_cell rest))))
    w

let budget_is_not_a_verdict () =
  let evs = double_apply_events () in
  match L.check_cell ~mode:L.Linearizable ~budget:1 ~init:(known 0) evs with
  | L.Cell_budget _ -> ()
  | L.Cell_ok _ -> Alcotest.fail "budget 1 cannot finish the search"
  | L.Cell_violation _ ->
      Alcotest.fail "budget exhaustion must not report a violation"

(* ---------------- generators ---------------- *)

(* (agent, op-code, invocation, value) tuples decode into one cell
   event each; values stay tiny so reads/CASes collide with writes. *)
let decode_op code v =
  match code mod 6 with
  | 0 -> H.Read (known v)
  | 1 -> H.Write (known v)
  | 2 ->
      H.Cas
        {
          expected = Int32.of_int v;
          desired = Int32.of_int ((v + 1) mod 5);
          success = true;
          witness = known v;
        }
  | 3 ->
      H.Cas
        {
          expected = Int32.of_int v;
          desired = Int32.of_int ((v + 2) mod 5);
          success = false;
          witness = known ((v + 1) mod 5);
        }
  | 4 -> H.Read H.Unknown
  | _ -> H.Write H.Unknown

let events_of_tuples tuples =
  List.mapi
    (fun i (agent, code, inv, v) ->
      ev i
        ~agent:(String.make 1 (Char.chr (Char.code 'a' + (agent mod 3))))
        (decode_op code v) ~inv
        ~resp:(if code mod 7 = 6 then None else Some (inv + 1 + (v mod 3))))
    tuples

let cell_history_gen =
  QCheck.(
    list_of_size Gen.(1 -- 8)
      (quad (int_bound 2) (int_bound 6) (int_bound 20) (int_bound 4)))

(* Any violating random history minimizes to a 1-minimal witness:
   still violating, and removing any single event linearizes it. *)
let qcheck_minimize_is_one_minimal =
  QCheck.Test.make ~name:"minimized witnesses are 1-minimal" ~count:300
    cell_history_gen
    (fun tuples ->
      let evs = events_of_tuples tuples in
      match check_cell evs with
      | L.Cell_ok _ | L.Cell_budget _ -> true
      | L.Cell_violation _ ->
          let w = L.minimize ~mode:L.Linearizable ~init:(known 0) evs in
          w <> []
          && is_violation (check_cell w)
          && List.for_all
               (fun dropped ->
                 not
                   (is_violation
                      (check_cell
                         (List.filter (fun e -> e.H.id <> dropped.H.id) w))))
               w)

(* Corrupting one event of a faithfully recorded sequential execution
   is always caught, and the witness shrinks to a handful of events. *)
let qcheck_corrupted_run_small_witness =
  QCheck.Test.make ~name:"single corruption yields a small witness" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 10) (pair (int_bound 2) (int_bound 5)))
        (int_bound 9))
    (fun (steps, corrupt) ->
      let state = ref 0l in
      let evs =
        List.mapi
          (fun i (agent, code) ->
            let v = Int32.of_int ((i + code) mod 4) in
            let op =
              match code mod 4 with
              | 0 -> H.Read (H.Known !state)
              | 1 ->
                  state := v;
                  H.Write (H.Known v)
              | 2 ->
                  let expected = !state in
                  state := v;
                  H.Cas { expected; desired = v; success = true; witness = H.Known expected }
              | _ ->
                  H.Cas
                    {
                      expected = Int32.add !state 1l;
                      desired = v;
                      success = false;
                      witness = H.Known !state;
                    }
            in
            ev i
              ~agent:(String.make 1 (Char.chr (Char.code 'a' + (agent mod 3))))
              op ~inv:(3 * i)
              ~resp:(Some ((3 * i) + 1)))
          steps
      in
      let n = List.length evs in
      let ci = corrupt mod n in
      let corrupted =
        List.mapi
          (fun i e -> if i = ci then { e with H.op = H.Read (known 99) } else e)
          evs
      in
      is_violation (check_cell corrupted)
      &&
      let w = L.minimize ~mode:L.Linearizable ~init:(known 0) corrupted in
      List.length w <= 6
      && is_violation (check_cell w)
      && List.for_all
           (fun dropped ->
             not
               (is_violation
                  (check_cell (List.filter (fun e -> e.H.id <> dropped.H.id) w))))
           w)

(* The partitioner: every event lands in exactly the group of its own
   cell, with capture order (and therefore every precedence edge, which
   is pointwise on event fields) preserved. *)
let qcheck_partition_preserves_order =
  QCheck.Test.make ~name:"partition preserves per-cell capture order"
    ~count:300
    QCheck.(
      list_of_size Gen.(0 -- 12)
        (quad (int_bound 1) (int_bound 1) (int_bound 2) (int_bound 6)))
    (fun tuples ->
      let evs =
        List.mapi
          (fun i (seg, word, agent, code) ->
            let cell = { H.key = { key with Analysis.Access.seg }; word = 4 * word } in
            ev i ~cell
              ~agent:(String.make 1 (Char.chr (Char.code 'a' + (agent mod 3))))
              (decode_op code (code mod 5))
              ~inv:i
              ~resp:(Some (i + 1 + code)))
          tuples
      in
      let groups = L.partition evs in
      let total = List.fold_left (fun n (_, g) -> n + List.length g) 0 groups in
      total = List.length evs
      && List.for_all
           (fun (cell, group) ->
             (* own-cell membership, and order = the original filtered
                by cell (ids strictly increasing in capture order) *)
             List.for_all (fun e -> e.H.cell = cell) group
             && List.map (fun e -> e.H.id) group
                = List.filter_map
                    (fun e -> if e.H.cell = cell then Some e.H.id else None)
                    evs)
           groups
      && List.length groups
         = List.length
             (List.sort_uniq compare (List.map (fun e -> e.H.cell) evs)))

let suite =
  [
    Alcotest.test_case "register+CAS specification" `Quick register_spec;
    Alcotest.test_case "pending operations float" `Quick
      pending_linearizes_anywhere;
    Alcotest.test_case "SC mode drops real-time edges" `Quick
      sc_mode_drops_real_time;
    Alcotest.test_case "double-apply shape rejected" `Quick double_apply_shape;
    Alcotest.test_case "witness is 1-minimal" `Quick witness_is_one_minimal;
    Alcotest.test_case "budget exhaustion is not a verdict" `Quick
      budget_is_not_a_verdict;
    QCheck_alcotest.to_alcotest qcheck_minimize_is_one_minimal;
    QCheck_alcotest.to_alcotest qcheck_corrupted_run_small_witness;
    QCheck_alcotest.to_alcotest qcheck_partition_preserves_order;
  ]
