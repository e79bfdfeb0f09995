(* The plumbing every rnet subcommand shares, so each one states only
   what it checks: the -w NAME|all selection, the --json and --ci
   flags, one banded report per item with one JSON envelope, and the
   exit policy — 0 on a pass, 1 on a violated band or a failed run, 2
   on a usage error (cmdliner itself answers 124 for a malformed
   command line). *)

open Cmdliner

type mode = { json : bool; ci : bool }

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

(* Run one item's report under the output mode: its text; or, under
   --json, one envelope {"schema","tool",KEY,"status","report","data"}
   whose status is ok, violated (a band does not hold) or error (the
   run raised; "detail" says why); or, under --ci alone, one ok line.
   Every violated band goes to stderr.  True when the run completed and
   every band holds, or, unless [gated], when it completed at all. *)
let report ?(gated = true) m ~tool ~key name run =
  let envelope status fields =
    if m.json then
      print_endline
        (Metrics.Json.write
           (Obj
              ([
                 ("schema", Metrics.Json.Number 1.);
                 ("tool", String tool);
                 (key, String name);
                 ("status", String status);
               ]
              @ fields)))
  in
  match run () with
  | report ->
      let text = Metrics.Table.render report in
      let violations = Metrics.Table.violations report in
      envelope
        (if violations = [] then "ok" else "violated")
        [
          ("report", String (if m.ci then "" else text));
          ("data", Metrics.Table.to_json report);
        ];
      if (not m.json) && m.ci && violations = [] then
        Printf.printf "%s: %s ok\n" tool name
      else if not (m.json || m.ci) then print_string text;
      List.iter (Printf.eprintf "%s: %s: band violated: %s\n" tool name) violations;
      violations = [] || not gated
  | exception (Usage _ as usage) -> raise usage
  | exception exn ->
      envelope "error" [ ("detail", String (Printexc.to_string exn)) ];
      Printf.eprintf "%s: %s failed: %s\n" tool name (Printexc.to_string exn);
      false

(* [report] over every item, each named by [name] and run by [run]. *)
let check ?gated m ~tool ~key ~name run items =
  run_all
    (fun item -> report ?gated m ~tool ~key (name item) (fun () -> run item))
    items

let json_flag =
  let doc =
    "Emit schema-versioned JSON on stdout instead of text; diagnostics \
     go to stderr. The exit status does not depend on it."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let exits =
  Cmd.Exit.info 1
    ~doc:
      "on a violated band (for $(b,obs), $(b,nfstrace) and $(b,cluster) \
       only with $(b,--ci)) or a failed run."
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
