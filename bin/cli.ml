(* The plumbing every rnet subcommand shares, so each one states only
   what it checks: the -w NAME|all selection, the --json and --ci
   flags, run-every-item-then-combine verdicts, and the exit policy —
   0 on a pass, 1 on a failed verdict or CI mismatch, 2 on a usage
   error (cmdliner itself answers 124 for a malformed command line). *)

open Cmdliner

type mode = { json : bool; ci : bool }

(* Diagnostics go to stderr under --json, so stdout stays parseable. *)
let diag m = if m.json then stderr else stdout

exception Usage of string

let usage fmt = Printf.ksprintf (fun msg -> raise (Usage msg)) fmt

(* -w NAME|all over the workload catalog view [names], each listed in
   the man page with its catalog doc after the lead sentence [doc]. *)
let workload ?(doc = "Workload to run") names =
  let listed (e : Catalog.t) =
    if List.mem e.name names then
      Some (Printf.sprintf "$(b,%s) (%s)" e.name e.doc)
    else None
  in
  let doc =
    Printf.sprintf "%s: %s, or $(b,all)." doc
      (String.concat ", " (List.filter_map listed Catalog.all))
  in
  Arg.(value & opt string "all" & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

(* A required positional NAME|all over [(name, doc)] choices, whose man
   page lists them. *)
let choice ~docv ~what choices =
  let doc =
    Printf.sprintf "The %s: %s, or $(b,all)." what
      (String.concat ", "
         (List.map
            (fun (name, d) -> Printf.sprintf "$(b,%s) (%s)" name d)
            choices))
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv ~doc)

let seed default =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

(* The items [choice] names: all of them for "all", else those whose
   [name] matches — none is a usage error listing the valid names. *)
let select ?(what = "workload") ~name items choice =
  if choice = "all" then items
  else
    match List.filter (fun item -> name item = choice) items with
    | [] ->
        usage "unknown %s %S (have: %s, all)" what choice
          (String.concat ", " (List.sort_uniq compare (List.map name items)))
    | picked -> picked

(* Replay schedule certificate [cert] against the workload [prepare]
   builds; a malformed certificate, or one whose choice points the run
   does not offer, is a usage error. *)
let replay ?config prepare cert =
  match Analysis.Schedule.of_string cert with
  | exception Invalid_argument msg -> usage "%s" msg
  | schedule -> (
      match Analysis.Explore.replay ?config prepare schedule with
      | outcome -> outcome
      | exception Analysis.Explore.Certificate_mismatch msg ->
          usage "certificate does not fit this workload: %s" msg)

(* Run every item before combining the verdicts: a short-circuiting
   for_all would skip (and hide) everything after the first failure. *)
let run_all f items = List.for_all Fun.id (List.map f items)

(* Under --ci, close with one [pass] or [fail] line. *)
let verdict m ok ~pass ~fail =
  if m.ci then Printf.fprintf (diag m) "%s\n" (if ok then pass else fail);
  ok

let json_flag =
  let doc =
    "Emit schema-versioned JSON on stdout instead of text; diagnostics \
     go to stderr. The exit status does not depend on it."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let exits =
  Cmd.Exit.info 1
    ~doc:"on a failed verdict or, with $(b,--ci), a breached gate."
  :: Cmd.Exit.info 2 ~doc:"on a usage error, such as an unknown workload."
  :: Cmd.Exit.defaults

(* A subcommand: [term] yields the run, which answers its verdict. *)
let cmd name ~doc ~ci term =
  let ci_flag = Arg.(value & flag & info [ "ci" ] ~doc:ci) in
  let run json ci run =
    match run { json; ci } with
    | true -> 0
    | false -> 1
    | exception Usage msg ->
        prerr_endline msg;
        2
  in
  let info = Cmd.info name ~doc ~exits in
  Cmd.v info Term.(const run $ json_flag $ ci_flag $ term)

let main ~doc cmds =
  exit
    (Cmd.eval' (Cmd.group (Cmd.info "rnet" ~version:"1.0.0" ~doc ~exits) cmds))
