(* rnet — every checker, campaign and reproduction of the paper behind
   one command; `rnet SUBCOMMAND --help` documents each. *)

let () =
  Cli.main
    ~doc:
      "Separating data and control transfer: reproduce, benchmark and \
       check the remote-memory system"
    [
      Racecheck.cmd;
      Modelcheck.cmd;
      Lincheck.cmd;
      Chaoscheck.cmd;
      Protocheck.cmd;
      Obsreport.cmd;
      Tracer.cmd;
      Repro.cmd;
      Nfstrace.cmd;
      Clustersim.cmd;
    ]
