(** The PR5 pipeline bench: the batching/windowing issue engine swept
    over window x batch x payload on the Table-2 workload shapes
    (4 KB write stream, read stream, doorbell writes), against the
    synchronous path. Emits the BENCH_PR5.json artifact and carries the
    regression checks the @bench alias enforces. *)

type sample = {
  workload : string;  (** write_stream | read_stream | doorbell *)
  mode : string;  (** unbatched | pipelined *)
  window : int;
  batch_bytes : int;
  payload : int;  (** bytes per op *)
  ops : int;
  p50_us : float;  (** per-op issue-to-deposit (-retire) latency *)
  p95_us : float;
  throughput_mbps : float;  (** first issue to last deposit *)
  traps_per_kb : float;  (** issue-side kernel crossings per KB moved *)
  notifies_per_op : float;
}

type result = sample list

val run :
  ?ops:int ->
  ?windows:int list ->
  ?batches:int list ->
  ?payloads:int list ->
  unit ->
  result
(** The sweep. Defaults: 64 ops, windows 1/2/4/8/16, batches
    8/32/64 KB, payloads 512 B and 4 KB. Deterministic (pure
    simulation). *)

val check : result -> string list
(** The regression gates, empty when all pass: unbatched 4 KB write
    throughput inside the Table-2 band (35.4 Mb/s +-10%), pipelined
    >= 1.5x unbatched on that workload, coalescing reduces doorbell
    notifications, windowed reads beat serial. *)

val to_json : result -> string
(** The BENCH_PR5.json document (schema in DESIGN.md §12). *)

val json_valid : string -> bool
(** [to_json]'s output parses as JSON ({!Metrics.Json.parse}).
    Test-only: the bench tests check the JSON it emits parses. *)

val render : result -> string
