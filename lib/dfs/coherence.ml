(* Token-based cache coherence (§5.1).

   The paper points at Calypso-style distributed token management and
   argues acquire/release can ride on compare-and-swap with no control
   transfer.  The token table is a segment of one word per token, owned
   by the server; holders are node ids (0 = free).  Acquire is a remote
   CAS(0 -> me) with exponential backoff; release is CAS(me -> 0).

   An RPC-based variant of the same protocol is provided as the
   baseline for the coherence ablation. *)

let token_segment_name = "dfs:tokens"
let default_tokens = 1024
let max_attempts = 64

(* ---------------- server side ---------------- *)

type manager = { space : Cluster.Address_space.t; base : int }

let rpc_prog = 0x1002
let proc_acquire = 1
let proc_release = 2

let export_tokens ~names () =
  let node = Names.Clerk.node names in
  let space = Cluster.Node.new_address_space node in
  let (_ : Rmem.Segment.t) =
    Names.Api.export names ~space ~base:0 ~len:(default_tokens * 4)
      ~rights:(Rmem.Rights.make ~read:true ~cas:true ())
      ~name:token_segment_name ()
  in
  { space; base = 0 }

let holder_of manager ~token =
  Cluster.Address_space.read_word manager.space
    ~addr:(manager.base + (token * 4))

(* The RPC-based token service over the same table. *)
let start_rpc_manager manager transport =
  let node = Rpckit.Transport.node transport in
  let costs = Cluster.Node.costs node in
  let cpu = Cluster.Node.cpu node in
  let handler ~src ~proc reader =
    let token = Rpckit.Xdr.read_int reader in
    Cluster.Cpu.use cpu ~category:Cluster.Cpu.cat_procedure
      costs.Cluster.Costs.proc_null;
    let me = Atm.Addr.to_int src + 1 in
    let addr = manager.base + (token * 4) in
    let reply = Rpckit.Xdr.create () in
    if proc = proc_acquire then begin
      let granted =
        Cluster.Address_space.cas_word manager.space ~addr ~old_value:0
          ~new_value:me
      in
      Rpckit.Xdr.bool reply granted
    end
    else begin
      let released =
        Cluster.Address_space.cas_word manager.space ~addr
          ~old_value:me ~new_value:0
      in
      Rpckit.Xdr.bool reply released
    end;
    reply
  in
  Rpckit.Server.create transport ~prog:rpc_prog ~threads:1 ~handler ()

(* ---------------- client side ---------------- *)

let revoke_name_for addr =
  Printf.sprintf "dfs:revoke:%d" (Atm.Addr.to_int addr)

let revoke_slots = 64
(* one "wanted" word per token id modulo this *)

type client = {
  rmem : Rmem.Remote_memory.t;
  node : Cluster.Node.t;
  names : Names.Clerk.t;
  desc : Rmem.Descriptor.t;
  me : int;
  revoke_space : Cluster.Address_space.t;
  revoke_descs : (int, Rmem.Descriptor.t) Hashtbl.t; (* peer -> its revoke seg *)
  held : (int, Sim.Time.t) Hashtbl.t; (* token -> acquired at *)
}

let connect ~names ~server () =
  let rmem = Names.Clerk.rmem names in
  let node = Rmem.Remote_memory.node rmem in
  let desc = Names.Api.import ~hint:server names token_segment_name in
  let revoke_space = Cluster.Node.new_address_space node in
  let (_ : Rmem.Segment.t) =
    Names.Api.export names ~space:revoke_space ~base:0 ~len:(revoke_slots * 4)
      ~rights:(Rmem.Rights.make ~write:true ())
      ~policy:Rmem.Segment.Conditional
      ~name:(revoke_name_for (Cluster.Node.addr node))
      ()
  in
  {
    rmem;
    node;
    names;
    desc;
    me = Atm.Addr.to_int (Cluster.Node.addr node) + 1;
    revoke_space;
    revoke_descs = Hashtbl.create 4;
    held = Hashtbl.create 4;
  }

let wanted t ~token =
  Cluster.Address_space.read_word t.revoke_space
    ~addr:(token mod revoke_slots * 4)
  <> 0

let clear_wanted t ~token =
  Cluster.Address_space.write_word t.revoke_space
    ~addr:(token mod revoke_slots * 4)
    0

(* Every token a client believes it holds must be published as held by
   that client in the server's table — the coherence invariant the
   model checker asserts between schedules. *)
let holds_match manager client =
  Hashtbl.fold
    (fun token _ ok ->
      ok && holder_of manager ~token = client.me)
    client.held true

let invariant manager ~clients = List.for_all (holds_match manager) clients

exception Acquire_failed of int

(* Ask the current holder to give the token up: a remote write of the
   "wanted" word into the holder's revocation segment, with the notify
   bit set — one control transfer instead of an unbounded CAS spin
   (the Calypso-style revocation of §5.1). *)
let request_revocation t ~holder ~token =
  let holder_addr = Atm.Addr.of_int (holder - 1) in
  let desc =
    match Hashtbl.find_opt t.revoke_descs holder with
    | Some desc -> desc
    | None ->
        let desc =
          Names.Api.import ~hint:holder_addr t.names
            (revoke_name_for holder_addr)
        in
        Hashtbl.replace t.revoke_descs holder desc;
        desc
  in
  let word = Bytes.create 4 in
  Bytes.set_int32_le word 0 1l;
  Rmem.Remote_memory.write t.rmem desc
    ~off:(token mod revoke_slots * 4)
    ~notify:true word

let acquire ?(revoke_after = max_int) t ~token =
  let rec attempt n backoff =
    if n >= max_attempts then raise (Acquire_failed token);
    let witness =
      Rmem.Remote_memory.cas_wait t.rmem t.desc ~doff:(token * 4)
        ~old_value:0 ~new_value:t.me ()
    in
    if witness = 0 then begin
      Hashtbl.replace t.held token (Sim.Engine.now (Cluster.Node.engine t.node))
    end
    else begin
      if n + 1 = revoke_after then
        request_revocation t ~holder:witness ~token;
      Sim.Proc.wait backoff;
      attempt (n + 1) (Sim.Time.min (Sim.Time.scale backoff 2.) (Sim.Time.ms 5))
    end
  in
  attempt 0 (Sim.Time.us 50)

let release t ~token =
  Hashtbl.remove t.held token;
  clear_wanted t ~token;
  let witness =
    Rmem.Remote_memory.cas_wait t.rmem t.desc ~doff:(token * 4)
      ~old_value:t.me ~new_value:0 ()
  in
  if witness <> t.me then
    failwith
      (Printf.sprintf "Coherence.release: token %d held by %d, not %d" token
         witness t.me)

(* Hold a token for up to [lease], but give it back early if somebody
   asks — the delayed-revocation discipline. *)
let hold_with_lease t ~token ~lease =
  let deadline =
    Sim.Time.add (Sim.Engine.now (Cluster.Node.engine t.node)) lease
  in
  let rec wait_out () =
    if
      Sim.Time.(Sim.Engine.now (Cluster.Node.engine t.node) < deadline)
      && not (wanted t ~token)
    then begin
      Sim.Proc.wait (Sim.Time.us 100);
      wait_out ()
    end
  in
  wait_out ();
  release t ~token

(* RPC-based acquire/release through the token service. *)
let rpc_acquire transport ~server ~token =
  let rec attempt n backoff =
    if n >= max_attempts then raise (Acquire_failed token);
    let args = Rpckit.Xdr.create () in
    Rpckit.Xdr.int args token;
    let reply =
      Rpckit.Client.call transport ~dst:server ~prog:rpc_prog
        ~proc:proc_acquire ~label:"Token Acquire" args
    in
    if not (Rpckit.Xdr.read_bool reply) then begin
      Sim.Proc.wait backoff;
      attempt (n + 1) (Sim.Time.min (Sim.Time.scale backoff 2.) (Sim.Time.ms 5))
    end
  in
  attempt 0 (Sim.Time.us 50)

let rpc_release transport ~server ~token =
  let args = Rpckit.Xdr.create () in
  Rpckit.Xdr.int args token;
  let reply =
    Rpckit.Client.call transport ~dst:server ~prog:rpc_prog ~proc:proc_release
      ~label:"Token Release" args
  in
  ignore (Rpckit.Xdr.read_bool reply : bool)
