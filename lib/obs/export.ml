(* Artifact rendering: Chrome trace-event JSON (load in chrome://tracing
   or https://ui.perfetto.dev).

   Chrome mapping: pid = node address (with process_name metadata), a
   synthetic pid for network hops, tid = trace id, so each operation
   renders as one nested row per machine. *)

let net_pid = 9999

let pid_of (s : Span.t) = if s.Span.node < 0 then net_pid else s.Span.node

let chrome_json trace =
  Trace.finalize trace;
  let spans = Trace.spans trace in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let first = ref true in
  let event s =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf s
  in
  (* Process-name metadata rows, one per distinct pid, in pid order. *)
  List.iter
    (fun pid ->
      let label = if pid = net_pid then "network" else Printf.sprintf "node%d" pid in
      event
        (Printf.sprintf
           "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
           pid label))
    (List.sort_uniq Int.compare (List.map pid_of spans));
  List.iter
    (fun (s : Span.t) ->
      let args =
        ("span", string_of_int s.Span.id)
        :: ("parent", string_of_int s.Span.parent)
        :: s.Span.args
      in
      let args_json =
        String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "\"%s\":\"%s\"" (Metrics.Json.escape k) (Metrics.Json.escape v))
             args)
      in
      event
        (Printf.sprintf
           "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
           (Metrics.Json.escape s.Span.name) (Metrics.Json.escape s.Span.cat) (pid_of s)
           s.Span.trace
           (Sim.Time.to_us s.Span.start)
           (Span.duration_us s) args_json))
    spans;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents buf
