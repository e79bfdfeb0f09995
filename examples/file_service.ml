(* The distributed file service end to end (§5): one clerk's script
   under RPC, Hybrid-1 and pure data transfer, then a write push one
   client makes and another reads through the server's cache.  The
   body is Catalog.Body.file_service.

     dune exec examples/file_service.exe *)

let () = Catalog.Body.(main file_service)
