(* The segment name service at work (§4): imports by remote probing
   and by control transfer, then a revoke and re-export that the
   refresh pass turns into local failures.  The body is
   Catalog.Body.name_service.

     dune exec examples/name_service.exe *)

let () = Catalog.Body.(main ~ends:"done at" (launch name_service))
