(* Ablation B: where the control transfer amortizes (§5.2's closing
   observation).  Read latency under HY and DX across transfer sizes;
   multi-block transfers issue one operation per 8 KB block.  HY/DX must
   stay at least 1 and never grow with size. *)

module T = Metrics.Table

let sizes = [ 64; 256; 1024; 4096; 8192; 16384; 32768; 65536 ]

let read_op fixture ~bytes ~block =
  Dfs.Nfs_ops.Read
    {
      fh = fixture.Fixture.bench_file;
      off = block * Dfs.File_store.block_bytes;
      count = Stdlib.min bytes Dfs.File_store.block_bytes;
    }

let measure fixture clerk scheme bytes =
  Dfs.Clerk.set_scheme clerk scheme;
  let blocks =
    Stdlib.max 1
      ((bytes + Dfs.File_store.block_bytes - 1) / Dfs.File_store.block_bytes)
  in
  let _, elapsed =
    Fixture.time fixture (fun () ->
        for block = 0 to blocks - 1 do
          let remaining = bytes - (block * Dfs.File_store.block_bytes) in
          ignore
            (Dfs.Clerk.remote_fetch clerk
               (read_op fixture ~bytes:remaining ~block)
              : Dfs.Nfs_ops.result)
        done)
  in
  elapsed

let run () =
  let fixture = Fixture.create () in
  (* The bench file holds 16 KB; extend it (and the server cache) so
     64 KB transfers stay warm. *)
  Fixture.run fixture (fun () ->
      let fh = fixture.Fixture.bench_file in
      Dfs.File_store.write fixture.Fixture.store fh ~off:0
        (Bytes.make 65536 'b');
      for block = 0 to 7 do
        Dfs.Server.cache_file_block fixture.Fixture.server fh ~block
      done;
      Dfs.Server.cache_attr fixture.Fixture.server fh;
      let clerk = Fixture.clerk fixture 0 in
      let previous = ref [] in
      T.make
        ~title:"Ablation B: read latency vs transfer size (control amortization)"
        [
          T.number ~unit_:"B" "Bytes" (Fixed 0);
          T.number ~unit_:"us" ~better:Lower "HY (us)" (Fixed 0);
          T.number ~unit_:"us" ~better:Lower "DX (us)" (Fixed 0);
          T.number ~unit_:"ratio" "HY/DX" (Fixed 2);
        ]
        (List.map
           (fun bytes ->
             let hy = measure fixture clerk Dfs.Clerk.Hybrid1 bytes in
             let dx = measure fixture clerk Dfs.Clerk.Dx bytes in
             let band = T.Ge 1. :: !previous in
             previous := [ T.Le (hy /. dx) ];
             [
               T.num (float_of_int bytes);
               T.num hy;
               T.num dx;
               T.num ~band (hy /. dx);
             ])
           sizes))
