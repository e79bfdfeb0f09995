(** Export manifests: a static, checkable declaration of the segments a
    workload shares — name, exporting node, extent, default rights,
    per-importer grants and notification policy.

    This is the information the name service carries at runtime, written
    down as data so the static protocol verifier ([Analysis.Static]) can
    prove rights and bounds at {e map time}, before any meta-instruction
    is issued — the pre-validation a kernel-bypass endpoint needs. *)

type export = {
  seg : string;  (** program-level segment name *)
  exporter : int;  (** exporting node index *)
  len : int;  (** extent in bytes *)
  rights : Rights.t;  (** default rights for importers *)
  grants : (int * Rights.t) list;  (** per-importer overrides *)
  policy : Segment.notify_policy;
}

type t = export list

val find : t -> string -> export option
val exporter : t -> string -> int option

val rights_for : t -> seg:string -> importer:int -> Rights.t option
(** The rights the named importer holds: its grant when one exists,
    the export's default otherwise; [None] for unknown segments. *)

val of_segment : exporter:int -> Segment.t -> export
(** Extract the manifest entry of a live exported segment, so a running
    endpoint and its static declaration cannot drift. *)

val rights_to_string : Rights.t -> string
(** ["rwc"] with ["-"] for missing rights. *)

val describe : export -> string
