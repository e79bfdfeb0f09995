(* The operation mix of the paper's Table 1a: several days of NFS RPC
   activity on the authors' departmental file server. *)

type row = { label : string; calls : int }

(* Counts verbatim from Table 1a. *)
let table_1a =
  [
    { label = "Get File Attribute"; calls = 8_960_671 };
    { label = "Lookup File Name"; calls = 8_840_866 };
    { label = "Read File Data"; calls = 4_478_036 };
    { label = "Null Ping Call"; calls = 3_602_730 };
    { label = "Read Symbolic Link"; calls = 1_628_256 };
    { label = "Read Directory Contents"; calls = 981_345 };
    { label = "Read File System Stats."; calls = 149_142 };
    { label = "Write File Data"; calls = 109_712 };
    { label = "Other"; calls = 109_986 };
  ]

let total_calls = List.fold_left (fun acc r -> acc + r.calls) 0 table_1a

let percentage row = 100. *. float_of_int row.calls /. float_of_int total_calls

let calls_of label =
  match List.find_opt (fun r -> String.equal r.label label) table_1a with
  | Some r -> r.calls
  | None -> 0

(* The label of the first cumulative count above [u], which the last
   row's, the total, always is. *)
let rec pick u = function
  | [] -> invalid_arg "Mix.sampler: a draw past the total"
  | (upto, label) :: rest -> if u < upto then label else pick u rest

(* Sample a label according to the mix. *)
let sampler () =
  let cumulative =
    let acc = ref 0 in
    List.map
      (fun r ->
        acc := !acc + r.calls;
        (!acc, r.label))
      table_1a
  in
  fun prng -> pick (Sim.Prng.int prng total_calls) cumulative
