(* Per-category accumulation of a quantity (CPU time, bytes, calls).

   This is the bookkeeping behind Figure 3's server-CPU breakdown and
   Table 1b's control/data traffic split: every consumption is attributed
   to a named category, and experiments read the per-category totals. *)

(* A one-field float record is stored flat, so [add] updates it in place
   without boxing the sum. *)
type cell = { mutable total : float }

type t = {
  totals : (string, cell) Hashtbl.t;
  mutable order : string list; (* categories in first-seen order *)
  (* The last category charged and its cell, matched by physical
     equality: callers pass the same constant string charge after
     charge, so most charges skip hashing it. *)
  mutable last_category : string;
  mutable last_cell : cell;
}

(* Never passed by a caller, so it matches nothing. *)
let no_category = String.make 1 ' '

let create () =
  {
    totals = Hashtbl.create 16;
    order = [];
    last_category = no_category;
    last_cell = { total = 0. };
  }

let cell t category =
  if category == t.last_category then t.last_cell
  else begin
    let c =
      match Hashtbl.find t.totals category with
      | c -> c
      | exception Not_found ->
          let c = { total = 0. } in
          Hashtbl.add t.totals category c;
          t.order <- category :: t.order;
          c
    in
    t.last_category <- category;
    t.last_cell <- c;
    c
  end

let add t ~category x =
  let c = cell t category in
  c.total <- c.total +. x

(* The conversions happen here rather than at the caller so no float
   crosses a call boundary, where it would be boxed. *)
let add_int t ~category n =
  let c = cell t category in
  c.total <- c.total +. float_of_int n

let add_us_of_ns t ~category ns =
  let c = cell t category in
  c.total <- c.total +. (float_of_int ns /. 1000.)

let total_of t category =
  match Hashtbl.find t.totals category with
  | c -> c.total
  | exception Not_found -> 0.

let categories t = List.rev t.order

(* Summed in first-seen order: a fold over the table would make the
   float sum depend on its hash seed (OCAMLRUNPARAM=R). *)
let grand_total t =
  List.fold_left (fun acc c -> acc +. total_of t c) 0. (categories t)

let to_list t = List.map (fun c -> (c, total_of t c)) (categories t)

let reset t =
  Hashtbl.reset t.totals;
  t.order <- [];
  t.last_category <- no_category
