(* Ablation B: where the control transfer amortizes (§5.2's closing
   observation).  Read latency under HY and DX across transfer sizes;
   multi-block transfers issue one operation per 8 KB block. *)

type point = {
  bytes : int;
  hy_us : float;
  dx_us : float;
  ratio : float; (* HY / DX *)
}

type result = point list

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
      List.map
        (fun bytes ->
          let hy = measure fixture clerk Dfs.Clerk.Hybrid1 bytes in
          let dx = measure fixture clerk Dfs.Clerk.Dx bytes in
          { bytes; hy_us = hy; dx_us = dx; ratio = hy /. dx })
        sizes)

let render points =
  let table =
    Metrics.Table.create
      ~title:"Ablation B: read latency vs transfer size (control amortization)"
      [
        ("Bytes", Metrics.Table.Right);
        ("HY (us)", Metrics.Table.Right);
        ("DX (us)", Metrics.Table.Right);
        ("HY/DX", Metrics.Table.Right);
      ]
  in
  List.iter
    (fun p ->
      Metrics.Table.add_row table
        [
          string_of_int p.bytes;
          Printf.sprintf "%.0f" p.hy_us;
          Printf.sprintf "%.0f" p.dx_us;
          Printf.sprintf "%.2f" p.ratio;
        ])
    points;
  Metrics.Table.render table
