(* rnet proto — static protocol verification of the declared
   meta-instruction programs (Analysis.Static): rights and bounds in an
   interval domain against the export manifest, fence-order hazards,
   retry-combinator discipline, and a pipelining-safety verdict per
   program.

     rnet proto                              # whole catalog
     rnet proto -w frame_overrun
     rnet proto --json
     rnet proto --ci

   Without --ci any finding fails the run; --ci asserts each program's
   workload-catalog expectations, as the --ci doc below states (the
   cross-confirmations only for the seeded programs in scope, so -w
   runs stay cheap). *)

let main workload (m : Cli.mode) =
  Cli.check m ~tool:"protocheck" ~key:"program"
    ~name:(fun (e : Catalog.program) -> e.program.name)
    (Catalog.proto_report ~ci:m.ci)
    (Cli.select ~what:"program"
       ~name:(fun (e : Catalog.program) -> e.program.name)
       Catalog.proto workload)

let cmd =
  Cli.cmd "proto" ~doc:"Static protocol verifier for declared access programs"
    ~ci:
      "Assert the catalog's expectations: seeded programs trip exactly \
       their rules, everything else is clean and its pipelining verdict \
       matches, and the headline static findings are cross-confirmed by \
       exploration certificates."
    Cmdliner.Term.(
      const main
      $ Cli.workload ~doc:"Program to verify"
          (List.map
             (fun (e : Catalog.program) -> e.program.name)
             Catalog.proto))
