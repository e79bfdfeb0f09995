(* Client-observed operation histories, captured from the monitor's
   event stream.  Everything here is bookkeeping; the one memory-model
   subtlety is *when* values are read: [record_serve] runs in the same
   atomic step as the serve, right after the deposit, so the word values
   it reads are exactly what the operation wrote / the reply carried.
   That makes the capture-order replay of any purely physical history a
   valid linearization (see DESIGN §13) — violations can only come from
   logical scopes whose claimed result disagrees with their physical
   operations. *)

type value = Known of int32 | Unknown

type operation =
  | Read of value
  | Write of value
  | Cas of {
      expected : int32;
      desired : int32;
      success : bool;
      witness : value;
    }

type cell = { key : Access.seg_key; word : int }

type event = {
  id : int;
  agent : string;
  cell : cell;
  op : operation;
  inv : Sim.Time.t;
  mutable resp : Sim.Time.t option;
  logical : bool;
}

type t = {
  mutable events : event list; (* newest first *)
  mutable next_id : int;
  snapshots : (Access.seg_key, bytes) Hashtbl.t;
  scopes : (string, Sim.Time.t) Hashtbl.t; (* open logical scopes *)
  excluded : (Access.seg_key, unit) Hashtbl.t;
}

let create () =
  {
    events = [];
    next_id = 0;
    snapshots = Hashtbl.create 8;
    scopes = Hashtbl.create 4;
    excluded = Hashtbl.create 4;
  }

let exclude t ~key = Hashtbl.replace t.excluded key ()
let events t = List.rev t.events

let word_size = 4

let init_value t cell =
  match Hashtbl.find_opt t.snapshots cell.key with
  | Some snap when cell.word >= 0 && cell.word + word_size <= Bytes.length snap
    ->
      (* Little-endian, matching {!Cluster.Address_space.read_word}. *)
      Known (Bytes.get_int32_le snap cell.word)
  | _ -> Unknown

let note_export t ~key segment =
  Hashtbl.replace t.snapshots key
    (Cluster.Address_space.read
       (Rmem.Segment.space segment)
       ~addr:(Rmem.Segment.base segment)
       ~len:(Rmem.Segment.length segment))

let add t ~agent ~cell ~op ~inv ~resp ~logical =
  let e = { id = t.next_id; agent; cell; op; inv; resp; logical } in
  t.next_id <- t.next_id + 1;
  t.events <- e :: t.events;
  e

(* The word-aligned cells [off, off+count) touches, each flagged fully
   covered or not.  Partial coverage yields Unknown values: the reply
   (or deposit) moved only some of the word's bytes. *)
let covered_cells ~key ~off ~count =
  if count <= 0 then []
  else begin
    let first = off / word_size * word_size in
    let last = (off + count - 1) / word_size * word_size in
    let rec go w acc =
      if w < first then acc
      else
        let full = w >= off && w + word_size <= off + count in
        go (w - word_size) (({ key; word = w }, full) :: acc)
    in
    go last []
  end

type handle = event list

let no_handle = []

let read_cell segment cell =
  Known
    (Int32.of_int
       (Cluster.Address_space.read_word
          (Rmem.Segment.space segment)
          ~addr:(Rmem.Segment.base segment + cell.word)))

let record_serve t ~agent ~key ~segment ~op ~off ~count ~cas ~cas_success ~inv
    ~now =
  if Hashtbl.mem t.scopes agent || Hashtbl.mem t.excluded key then no_handle
  else
    match op with
    | Rmem.Rights.Cas_op ->
        let cell = { key; word = off / word_size * word_size } in
        let success = cas_success = Some true in
        let expected, desired =
          match cas with Some (e, d) -> (e, d) | None -> (0l, 0l)
        in
        (* A successful CAS observed its expected value; a failed one
           left memory untouched, so the post-serve word is the witness
           the reply carries. *)
        let witness =
          if success then Known expected else read_cell segment cell
        in
        let op = Cas { expected; desired; success; witness } in
        [ add t ~agent ~cell ~op ~inv ~resp:None ~logical:false ]
    | Rmem.Rights.Read_op ->
        List.map
          (fun (cell, full) ->
            let v = if full then read_cell segment cell else Unknown in
            add t ~agent ~cell ~op:(Read v) ~inv ~resp:None ~logical:false)
          (covered_cells ~key ~off ~count)
    | Rmem.Rights.Write_op ->
        (* Unacknowledged: the deposit is the whole observable effect,
           so the event completes on the spot. *)
        List.iter
          (fun (cell, full) ->
            let v = if full then read_cell segment cell else Unknown in
            ignore
              (add t ~agent ~cell ~op:(Write v) ~inv ~resp:(Some now)
                 ~logical:false))
          (covered_cells ~key ~off ~count);
        no_handle

let complete _t handle ~now =
  List.iter (fun e -> if e.resp = None then e.resp <- Some now) handle

let record_local t ~agent ~key ~kind ~off ~count ?value ~now () =
  if not (Hashtbl.mem t.scopes agent || Hashtbl.mem t.excluded key) then
    List.iter
      (fun (cell, full) ->
        let v =
          match value with Some v when full -> Known v | _ -> Unknown
        in
        let op = match kind with `Load -> Read v | `Store -> Write v in
        ignore (add t ~agent ~cell ~op ~inv:now ~resp:(Some now) ~logical:false))
      (covered_cells ~key ~off ~count)

let scope_begin t ~agent ~now =
  if Hashtbl.mem t.scopes agent then
    invalid_arg "History.scope_begin: scope already open";
  Hashtbl.replace t.scopes agent now

let scope_end t ~agent ~cell ~op ~now =
  match Hashtbl.find_opt t.scopes agent with
  | None -> invalid_arg "History.scope_end: no open scope"
  | Some inv ->
      Hashtbl.remove t.scopes agent;
      ignore (add t ~agent ~cell ~op ~inv ~resp:(Some now) ~logical:true)

let value_to_string = function
  | Known v -> Int32.to_string v
  | Unknown -> "?"

let op_to_string = function
  | Read v -> Printf.sprintf "READ -> %s" (value_to_string v)
  | Write v -> Printf.sprintf "WRITE %s" (value_to_string v)
  | Cas { expected; desired; success; witness } ->
      Printf.sprintf "CAS(%ld->%ld) %s w=%s" expected desired
        (if success then "ok" else "fail")
        (value_to_string witness)

let cell_to_string cell =
  Printf.sprintf "%s+%d" (Access.key_to_string cell.key) cell.word

let event_to_string e =
  Printf.sprintf "%s %s %s [%s, %s]%s" e.agent (cell_to_string e.cell)
    (op_to_string e.op) (Sim.Time.to_string e.inv)
    (match e.resp with Some r -> Sim.Time.to_string r | None -> "pending")
    (if e.logical then " (logical)" else "")
