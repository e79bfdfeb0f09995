let access_cell (a : Access.t) =
  Printf.sprintf "%s %s [%d..%d)" a.agent_name
    (Access.kind_to_string a.kind)
    a.off (a.off + a.count)

let races_table races =
  Metrics.Table.(
    render
      (make ~title:"data races"
         [ label "segment"; label "first access"; label "second access";
           label ~align:Right "at" ]
         (List.map
            (fun (r : Race.t) ->
              List.map text
                [
                  Printf.sprintf "%s (%s)" r.seg_name
                    (Access.key_to_string r.key);
                  access_cell r.a;
                  access_cell r.b;
                  Sim.Time.to_string r.b.Access.time;
                ])
            races)))

let findings_table findings =
  Metrics.Table.(
    render
      (make ~title:"protocol findings"
         [ label "rule"; label "agent"; label "segment"; label "detail" ]
         (List.map
            (fun (f : Lint.finding) ->
              List.map text
                [ f.rule; f.agent; Access.key_to_string f.key; f.detail ])
            findings)))

let schema_version = 1

let json_escape = Metrics.Json.escape

let json_string s = "\"" ^ json_escape s ^ "\""

module Json = struct
  (* Tiny writer combinators so every CLI hand-assembles the same
     shapes the same way instead of each re-deriving Printf idioms. *)
  type t = string

  let str s = json_string s
  let int n = string_of_int n
  let bool b = if b then "true" else "false"
  let raw s = s
  let list items = "[" ^ String.concat "," items ^ "]"
  let obj fields =
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
    ^ "}"
  let to_string t = t
end

let emit ~tool line =
  (match Metrics.Json.parse line with
  | Ok _ -> ()
  | Error e ->
      Printf.eprintf "%s: emitted JSON failed self-validation: %s\n" tool e;
      exit 1);
  print_endline line

let access_json (a : Access.t) =
  Printf.sprintf "{\"agent\":%s,\"kind\":%s,\"off\":%d,\"count\":%d,\"at\":%s}"
    (json_string a.agent_name)
    (json_string (Access.kind_to_string a.kind))
    a.off a.count
    (json_string (Sim.Time.to_string a.Access.time))

let race_json (r : Race.t) =
  Printf.sprintf "{\"segment\":%s,\"key\":%s,\"first\":%s,\"second\":%s}"
    (json_string r.seg_name)
    (json_string (Access.key_to_string r.key))
    (access_json r.a) (access_json r.b)

let finding_json (f : Lint.finding) =
  Printf.sprintf "{\"rule\":%s,\"agent\":%s,\"segment\":%s,\"detail\":%s}"
    (json_string f.rule) (json_string f.agent)
    (json_string (Access.key_to_string f.key))
    (json_string f.detail)

let json ~title monitor ~races ~findings =
  Printf.sprintf
    "{\"schema\":%d,\"workload\":%s,\"agents\":%d,\"accesses\":%d,\"lrpc_calls\":%d,\"races\":[%s],\"findings\":[%s]}"
    schema_version (json_string title)
    (Monitor.agent_count monitor)
    (List.length (Monitor.accesses monitor))
    (Monitor.lrpc_calls monitor)
    (String.concat "," (List.map race_json races))
    (String.concat "," (List.map finding_json findings))

let summary monitor ~races ~findings =
  Printf.sprintf
    "%d agents, %d accesses, %d lrpc calls: %d race(s), %d finding(s)"
    (Monitor.agent_count monitor)
    (List.length (Monitor.accesses monitor))
    (Monitor.lrpc_calls monitor)
    (List.length races) (List.length findings)

let print ~title monitor ~races ~findings =
  Printf.printf "== %s: %s\n" title (summary monitor ~races ~findings);
  if races <> [] then print_string (races_table races);
  if findings <> [] then print_string (findings_table findings);
  if races = [] && findings = [] then Printf.printf "   clean\n"
