(** Every declared access program, as plain values, each named after
    the workload it declares. What each workload does, and what the
    static verifier must find in it, is documented in its
    workload-catalog entry ([Catalog]).

    Each program declares the segments, offsets, extents, value ranges
    and retry disciplines its workload is supposed to use. Campaign
    programs declare policied writes as write-then-fence (they verify
    by read-back) and policied CAS wrappers as [verified] (they re-read
    the authoritative word). *)

(** {1 Analysis scenarios, seeded bugs included} *)

val kv_store : Program.t
val producer_consumer : Program.t
val file_service : Program.t
val file_service_nofence : Program.t
val name_service : Program.t
val racy : Program.t
val torn_record : Program.t
val cas_missing_release : Program.t
val cas_double_apply : Program.t
val frame_overrun : Program.t
val dds_register_no_writeback : Program.t

(** {1 Recovery campaigns} *)

val campaign_quickstart : Program.t
val campaign_name_service : Program.t
val campaign_producer_consumer : Program.t
val campaign_replica : Program.t
val campaign_crash_restart : Program.t

(** {1 Pipelined streams, sharded name service, data structures} *)

val pipeline_write_stream : Program.t
val pipeline_read_stream : Program.t
val pipeline_doorbell : Program.t
val sharded_lookup : Program.t
val shard_map_publish : Program.t
val shard_map_publish_unfenced : Program.t
val dds_hashtable : Program.t
val dds_queue : Program.t
val dds_register : Program.t
