(** Campaign: the batching/windowing issue engine swept over window x
    batch x payload on the Table-2 workload shapes (4 KB write stream,
    read stream, doorbell writes), against the synchronous path. *)

val run : unit -> Metrics.Table.t
(** The sweep, 64 ops per sample: windows 1/2/4/8/16, batches 4 to
    64 KB, payloads 512 B and 4 KB. Its bands: unbatched 4 KB write
    throughput within 10% of Table 2's 35.4 Mb/s, the best pipelined
    write at 1.5x it or more, doorbell coalescing (1 notification per
    op unbatched, fewer pipelined), windowed reads faster than serial. *)
