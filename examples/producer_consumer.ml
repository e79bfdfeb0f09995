(* A cross-machine producer/consumer ring from the three primitives:
   remote CAS claims slots, remote WRITE delivers items, the
   notification bit rings the doorbell.  No RPC anywhere.  The body is
   Catalog.Body.producer_consumer.

     dune exec examples/producer_consumer.exe *)

let () = Catalog.Body.(main ~ends:"finished at" (launch producer_consumer))
