(** Horizontal, optionally stacked, grouped bar charts in plain text.

    Renders the paper's Figures 2 and 3: one group per file operation,
    one bar per scheme, one segment per CPU-cost category, with a legend
    when more than one segment label is in play. *)

type segment = { label : string; value : float }
type bar = { name : string; segments : segment list }
type group = { group_name : string; bars : bar list }

val render : ?title:string -> ?unit_label:string -> group list -> string
(** Bars share a common scale (the largest total maps to 60 cells). *)
