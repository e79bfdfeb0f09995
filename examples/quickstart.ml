(* Quickstart: the remote-memory model in one run — a named export and
   import, a notifying WRITE, a READ back and two compare-and-swaps
   over the simulated ATM fabric.  The body is Catalog.Body.quickstart.

     dune exec examples/quickstart.exe *)

let () = Catalog.Body.(main ~ends:"simulation ended at" (launch quickstart))
