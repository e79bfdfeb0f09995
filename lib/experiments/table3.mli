(** Table 3: name server performance (export / import cached /
    import uncached / revoke / lookup-with-notification). *)

val run : unit -> Metrics.Table.t
