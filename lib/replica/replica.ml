(* A serverless replicated configuration store.

   §3.2's closing observation: "in some cases it might be possible to
   eliminate the server completely and have the state maintained by the
   clerks alone."  This service does exactly that.  Every member holds
   a full replica of a small key/value table inside an exported
   segment.  An update is a set of one-way remote writes, one per peer
   — pure data transfer, nobody scheduled anywhere.  Reads are local
   memory accesses.  Versions make concurrent updates converge
   (last-writer-wins, version then writer id as tie-break), and an
   anti-entropy pass remote-reads a peer's replica to repair anything a
   lost or reordered update left behind.

   Slot layout (single-writer-per-slot is NOT assumed; the version word
   is written last so torn remote reads are detectable):
     [version 4][writer 4][key 32][len 4][value 64] = 108 -> 112 bytes. *)

let slot_bytes = 112
let key_bytes = 32
let value_bytes = 64

let segment_name_for addr =
  Printf.sprintf "replica:%d" (Atm.Addr.to_int addr)

type entry = { version : int; writer : int; key : string; value : bytes }

type t = {
  rmem : Rmem.Remote_memory.t;
  names : Names.Clerk.t;
  node : Cluster.Node.t;
  space : Cluster.Address_space.t;
  peers : (int, Rmem.Descriptor.t) Hashtbl.t; (* peer addr -> its replica *)
  scratch_base : int;
  mutable repairs : int;
  mutable recovery : Rmem.Recovery.policy option;
  (* None (default): legacy one-way pushes and unbounded anti-entropy
     reads, bit-identical to the fault-free build *)
  (* when set, pushes go through the batching engine: body and version
     word of one update merge into a single burst extent per peer *)
}

let slots = 64
let slot_of key = Names.Record.fnv_hash key land (slots - 1)
let slot_addr (_ : t) index = index * slot_bytes

let encode_entry e =
  if String.length e.key > key_bytes then invalid_arg "Replica: key too long";
  if Bytes.length e.value > value_bytes then
    invalid_arg "Replica: value too long";
  let b = Bytes.make slot_bytes '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int e.version);
  Bytes.set_int32_le b 4 (Int32.of_int e.writer);
  Bytes.blit_string e.key 0 b 8 (String.length e.key);
  Bytes.set_int32_le b 40 (Int32.of_int (Bytes.length e.value));
  Bytes.blit e.value 0 b 44 (Bytes.length e.value);
  b

let decode_entry b =
  let version = Int32.to_int (Bytes.get_int32_le b 0) in
  if version = 0 then None
  else begin
    let writer = Int32.to_int (Bytes.get_int32_le b 4) in
    let raw_key = Bytes.sub_string b 8 key_bytes in
    let key =
      match String.index_opt raw_key '\000' with
      | Some i -> String.sub raw_key 0 i
      | None -> raw_key
    in
    let len = Int32.to_int (Bytes.get_int32_le b 40) in
    if len < 0 || len > value_bytes then None
    else Some { version; writer; key; value = Bytes.sub b 44 len }
  end

let create names =
  let rmem = Names.Clerk.rmem names in
  let node = Rmem.Remote_memory.node rmem in
  let space = Cluster.Node.new_address_space node in
  let (_ : Rmem.Segment.t) =
    Names.Api.export names ~space ~base:0 ~len:(slots * slot_bytes)
      ~rights:(Rmem.Rights.make ~read:true ~write:true ())
      ~name:(segment_name_for (Cluster.Node.addr node))
      ()
  in
  {
    rmem;
    names;
    node;
    space;
    peers = Hashtbl.create 8;
    scratch_base = slots * slot_bytes * 2;
    repairs = 0;
    recovery = None;
  }

let join t ~peer =
  let key = Atm.Addr.to_int peer in
  if (not (Hashtbl.mem t.peers key)) && not (Atm.Addr.equal peer (Cluster.Node.addr t.node))
  then
    Hashtbl.replace t.peers key
      (Names.Api.import ~hint:peer t.names (segment_name_for peer))

let members t = Hashtbl.length t.peers + 1

let set_recovery t policy = t.recovery <- policy

(* The per-peer policy: the base policy plus a revalidator that
   re-imports the peer's replica by name (forced lookup, hinted at the
   peer), so a Stale_generation after the peer crash/restarts heals. *)
let peer_policy t ~peer =
  match t.recovery with
  | None -> None
  | Some base ->
      Some
        (Rmem.Recovery.with_revalidate base
           (Names.Api.revalidator ~hint:peer t.names (segment_name_for peer)))

(* Is [candidate] newer than [current]?  Version, then writer id. *)
let newer candidate current =
  match current with
  | None -> true
  | Some current ->
      candidate.version > current.version
      || (candidate.version = current.version
         && candidate.writer > current.writer)

let read_local_slot t index =
  decode_entry
    (Cluster.Address_space.read t.space ~addr:(slot_addr t index) ~len:slot_bytes)

let install_local t entry =
  let index = slot_of entry.key in
  let image = encode_entry entry in
  (* Body first, version word last: remote readers never see a torn
     entry with a plausible version. *)
  Cluster.Address_space.write_word t.space ~addr:(slot_addr t index) 0;
  Cluster.Address_space.write t.space
    ~addr:(slot_addr t index + 4)
    (Bytes.sub image 4 (slot_bytes - 4));
  Cluster.Address_space.write_word t.space ~addr:(slot_addr t index)
    entry.version

let get t key =
  match read_local_slot t (slot_of key) with
  | Some entry when String.equal entry.key key -> Some entry.value
  | Some _ | None -> None

let version_of t key =
  match read_local_slot t (slot_of key) with
  | Some entry when String.equal entry.key key -> entry.version
  | Some _ | None -> 0

let set t key value =
  let entry =
    {
      version = version_of t key + 1;
      writer = Atm.Addr.to_int (Cluster.Node.addr t.node);
      key;
      value;
    }
  in
  install_local t entry;
  (* Propagate with one-way remote writes: body then version word. *)
  let index = slot_of key in
  let image = encode_entry entry in
  let body = Bytes.sub image 4 (slot_bytes - 4) in
  let version_word = Bytes.create 4 in
  Bytes.set_int32_le version_word 0 (Int32.of_int entry.version);
  (* Under a recovery policy each push is verified and reissued on loss — re-depositing is idempotent
     (same version, same bytes) — and a peer that stays unreachable
     is skipped, not an exception: anti-entropy repairs it after the
     heal.  Every push visits peers in address order, for
     deterministic replay. *)
  let peers =
    List.sort
      (fun (a, _) (b, _) -> compare (a : int) b)
      (Hashtbl.fold (fun addr desc acc -> (addr, desc) :: acc) t.peers [])
  in
  List.iter
    (fun (addr, desc) ->
      let policy = peer_policy t ~peer:(Atm.Addr.of_int addr) in
      match
        Rmem.Remote_memory.write ?policy t.rmem desc
          ~off:(slot_addr t index + 4)
          body;
        Rmem.Remote_memory.write ?policy t.rmem desc ~off:(slot_addr t index)
          version_word
      with
      | () -> ()
      | exception (Rmem.Status.Timeout | Rmem.Status.Remote_error _)
        when Option.is_some policy ->
          ())
    peers

(* Anti-entropy: remote-read one peer's whole replica and adopt every
   entry newer than ours.  Cheap (one block read), server-free, and
   repairs both lost updates and late joiners. *)
let anti_entropy_with t ~peer =
  match Hashtbl.find_opt t.peers (Atm.Addr.to_int peer) with
  | None -> invalid_arg "Replica.anti_entropy_with: unknown peer"
  | Some desc ->
      let len = slots * slot_bytes in
      let buf =
        Rmem.Remote_memory.buffer ~space:t.space ~base:t.scratch_base ~len
      in
      Rmem.Remote_memory.read_wait
        ?policy:(peer_policy t ~peer)
        t.rmem desc ~soff:0 ~count:len ~dst:buf ~doff:0 ();
      for index = 0 to slots - 1 do
        let image =
          Cluster.Address_space.read t.space
            ~addr:(t.scratch_base + slot_addr t index)
            ~len:slot_bytes
        in
        match decode_entry image with
        | Some theirs when newer theirs (read_local_slot t index) ->
            install_local t theirs;
            t.repairs <- t.repairs + 1
        | Some _ | None -> ()
      done

let start_anti_entropy_daemon t ~period =
  let stopped = ref false in
  Cluster.Node.spawn t.node (fun () ->
      let prng = Cluster.Node.prng t.node in
      while not !stopped do
        Sim.Proc.wait period;
        if not !stopped then begin
          (* Address order, as the push path uses: the draw below
             must not depend on the table's bucket order. *)
          let peers =
            List.sort Int.compare
              (Hashtbl.fold (fun addr _ acc -> addr :: acc) t.peers [])
          in
          match peers with
          | [] -> ()
          | _ -> (
              let target =
                List.nth peers (Sim.Prng.int prng (List.length peers))
              in
              try anti_entropy_with t ~peer:(Atm.Addr.of_int target)
              with (Rmem.Status.Timeout | Rmem.Status.Remote_error _) when
                Option.is_some t.recovery ->
                (* Under a recovery policy the daemon outlives a peer
                   that stayed unreachable through every retry and
                   reconciles again next period. *)
                ())
        end
      done);
  fun () -> stopped := true

let repairs t = t.repairs
