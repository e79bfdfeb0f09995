(* Horizontal, optionally stacked, grouped bar charts in plain text.

   Used to render the paper's Figures 2 and 3: one group per file operation,
   one bar per scheme (HY / DX), segments per CPU-cost category. *)

type segment = { label : string; value : float }

type bar = { name : string; segments : segment list }

type group = { group_name : string; bars : bar list }

let fill_chars = [| '#'; '='; '+'; '-'; '~'; 'o'; '*'; 'x' |]

let bar_total bar =
  List.fold_left (fun acc s -> acc +. s.value) 0. bar.segments

let collect_labels groups =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun g ->
      List.iter
        (fun b ->
          List.iter
            (fun s ->
              if not (Hashtbl.mem seen s.label) then begin
                Hashtbl.add seen s.label (Hashtbl.length seen);
                order := s.label :: !order
              end)
            b.segments)
        g.bars)
    groups;
  List.rev !order

let char_for labels label =
  let rec index i = function
    | [] -> 0
    | l :: rest -> if String.equal l label then i else index (i + 1) rest
  in
  fill_chars.(index 0 labels mod Array.length fill_chars)

let width = 60

let render ?title ?(unit_label = "") groups =
  let labels = collect_labels groups in
  let max_total =
    List.fold_left
      (fun acc g ->
        List.fold_left (fun acc b -> Float.max acc (bar_total b)) acc g.bars)
      0. groups
  in
  let name_width =
    List.fold_left
      (fun acc g -> Stdlib.max acc (String.length g.group_name))
      0 groups
  in
  let bar_name_width =
    List.fold_left
      (fun acc g ->
        List.fold_left
          (fun acc b -> Stdlib.max acc (String.length b.name))
          acc g.bars)
      0 groups
  in
  let buf = Buffer.create 2048 in
  (match title with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
  | None -> ());
  let scale v =
    if max_total <= 0. then 0
    else int_of_float (Float.round (v /. max_total *. float_of_int width))
  in
  List.iter
    (fun g ->
      List.iteri
        (fun i b ->
          let prefix = if i = 0 then g.group_name else "" in
          Buffer.add_string buf
            (Printf.sprintf "%-*s %-*s |" name_width prefix bar_name_width
               b.name);
          (* Scale cumulative boundaries, not per-segment lengths, so the
             whole bar length equals scale(total) exactly. *)
          let cum = ref 0. in
          let drawn = ref 0 in
          List.iter
            (fun s ->
              cum := !cum +. s.value;
              let upto = scale !cum in
              if upto > !drawn then begin
                Buffer.add_string buf
                  (String.make (upto - !drawn) (char_for labels s.label));
                drawn := upto
              end)
            b.segments;
          Buffer.add_string buf
            (Printf.sprintf "| %.1f%s\n" (bar_total b) unit_label))
        g.bars)
    groups;
  if List.length labels > 1 then begin
    Buffer.add_string buf "legend:";
    List.iter
      (fun l -> Buffer.add_string buf (Printf.sprintf " [%c]=%s" (char_for labels l) l))
      labels;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf
