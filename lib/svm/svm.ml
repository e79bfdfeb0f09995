(* Ivy-style shared virtual memory [Li & Hudak 1989] — the related-work
   comparator of §6.

   A fixed manager tracks, per shared page, the owner and the copyset.
   Reads of an invalid page fault to the manager, which fetches the page
   from its owner (4 KB moves, plus control transfer at the manager and
   the owner); writes invalidate every cached copy first.  This is the
   structure the paper criticizes: page-granularity sharing invites
   false sharing, and every fault requires "non-trivial processing and
   control transfer at the machine that faults the page in".

   Built over the RPC stack, which is exactly how such systems were
   built; the remote-memory model needs none of this machinery. *)

let page_bytes = 4096

type page_state = Invalid | Read_shared | Write_owned

type t = {
  node : Cluster.Node.t;
  transport : Rpckit.Transport.t;
  manager : Atm.Addr.t;
  pages : int;
  space : Cluster.Address_space.t;
  states : page_state array;
  (* manager-only state *)
  owners : Atm.Addr.t array;
  copysets : (int, unit) Hashtbl.t array; (* page -> set of node addrs *)
  mutable read_faults : int;
}

let manager_prog = 0x2001
let agent_prog = 0x2002

let proc_read_fault = 1
let proc_write_fault = 2
let proc_fetch = 1
let proc_invalidate = 2

let is_manager t = Atm.Addr.equal (Cluster.Node.addr t.node) t.manager

let page_addr page = page * page_bytes

let read_local_page t page =
  Cluster.Address_space.read t.space ~addr:(page_addr page) ~len:page_bytes

let install_page t page data =
  Cluster.Address_space.write t.space ~addr:(page_addr page) data

(* ------------------------------------------------------------------ *)
(* Server-side handlers.                                               *)

let agent_handler t ~src:_ ~proc reader =
  let page = Rpckit.Xdr.read_int reader in
  let reply = Rpckit.Xdr.create () in
  if proc = proc_fetch then begin
    (* Relinquish write ownership; keep a read copy. *)
    if t.states.(page) = Write_owned then t.states.(page) <- Read_shared;
    Rpckit.Xdr.opaque reply (read_local_page t page)
  end
  else if proc = proc_invalidate then begin
    t.states.(page) <- Invalid;
    Rpckit.Xdr.bool reply true
  end
  else invalid_arg "Svm.agent_handler: unknown proc";
  reply

(* Fetch the current contents of [page] from its owner (which may be
   the manager itself). *)
let fetch_from_owner t page =
  let owner = t.owners.(page) in
  if Atm.Addr.equal owner (Cluster.Node.addr t.node) then begin
    if t.states.(page) = Write_owned then t.states.(page) <- Read_shared;
    read_local_page t page
  end
  else begin
    let args = Rpckit.Xdr.create () in
    Rpckit.Xdr.int args page;
    let reply =
      Rpckit.Client.call ~category:Cluster.Cpu.cat_procedure t.transport
        ~dst:owner ~prog:agent_prog ~proc:proc_fetch ~label:"svm fetch" args
    in
    Rpckit.Xdr.read_opaque reply
  end

let invalidate_copies t page ~except =
  (* Invalidate in address order, not the copyset's bucket order. *)
  let members =
    Hashtbl.fold (fun addr () acc -> addr :: acc) t.copysets.(page) []
    |> List.sort Int.compare
  in
  List.iter
    (fun addr_int ->
      let addr = Atm.Addr.of_int addr_int in
      if not (Atm.Addr.equal addr except) then
        if Atm.Addr.equal addr (Cluster.Node.addr t.node) then
          t.states.(page) <- Invalid
        else begin
          let args = Rpckit.Xdr.create () in
          Rpckit.Xdr.int args page;
          let (_ : Rpckit.Xdr.reader) =
            Rpckit.Client.call ~category:Cluster.Cpu.cat_procedure t.transport
              ~dst:addr ~prog:agent_prog ~proc:proc_invalidate
              ~label:"svm invalidate" args
          in
          ()
        end)
    members;
  Hashtbl.reset t.copysets.(page)

let manager_handler t ~src ~proc reader =
  let page = Rpckit.Xdr.read_int reader in
  let reply = Rpckit.Xdr.create () in
  if proc = proc_read_fault then begin
    let data = fetch_from_owner t page in
    Hashtbl.replace t.copysets.(page) (Atm.Addr.to_int src) ();
    Hashtbl.replace t.copysets.(page) (Atm.Addr.to_int t.owners.(page)) ();
    Rpckit.Xdr.opaque reply data
  end
  else if proc = proc_write_fault then begin
    let data = fetch_from_owner t page in
    invalidate_copies t page ~except:src;
    (* The previous owner loses the page too (it was not in [except]
       unless it is the requester; handle the owner explicitly). *)
    let previous = t.owners.(page) in
    if
      (not (Atm.Addr.equal previous src))
      && Atm.Addr.equal previous (Cluster.Node.addr t.node)
    then t.states.(page) <- Invalid;
    t.owners.(page) <- src;
    Hashtbl.replace t.copysets.(page) (Atm.Addr.to_int src) ();
    Rpckit.Xdr.opaque reply data
  end
  else invalid_arg "Svm.manager_handler: unknown proc";
  reply

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)

let attach transport ~manager ~pages =
  let node = Rpckit.Transport.node transport in
  let t =
    {
      node;
      transport;
      manager;
      pages;
      space = Cluster.Node.new_address_space node;
      states = Array.make pages Invalid;
      owners = Array.make pages manager;
      copysets = Array.init pages (fun _ -> Hashtbl.create 4);
      read_faults = 0;
    }
  in
  let (_ : Rpckit.Server.t) =
    Rpckit.Server.create transport ~prog:agent_prog ~threads:1
      ~handler:(fun ~src ~proc reader -> agent_handler t ~src ~proc reader)
      ()
  in
  if Atm.Addr.equal (Cluster.Node.addr node) manager then begin
    (* The manager starts owning every page, readable and writable. *)
    Array.fill t.states 0 pages Write_owned;
    let (_ : Rpckit.Server.t) =
      Rpckit.Server.create transport ~prog:manager_prog ~threads:1
        ~handler:(fun ~src ~proc reader -> manager_handler t ~src ~proc reader)
        ()
    in
    ()
  end;
  t

(* ------------------------------------------------------------------ *)
(* Faulting accesses.                                                  *)

let fault t page ~proc =
  (* The paper's complaint, charged for real: the faulting machine pays
     a trap plus fault-handler work before any communication happens. *)
  let c = Cluster.Node.costs t.node in
  Cluster.Cpu.use (Cluster.Node.cpu t.node) ~category:Cluster.Cpu.cat_client
    (Sim.Time.add c.Cluster.Costs.trap c.Cluster.Costs.syscall);
  let me = Cluster.Node.addr t.node in
  let data =
    if is_manager t then begin
      (* The manager consults its own tables directly (no self-RPC). *)
      let data = fetch_from_owner t page in
      if proc = proc_write_fault then begin
        invalidate_copies t page ~except:me;
        t.owners.(page) <- me
      end;
      Hashtbl.replace t.copysets.(page) (Atm.Addr.to_int me) ();
      data
    end
    else begin
      let args = Rpckit.Xdr.create () in
      Rpckit.Xdr.int args page;
      let label =
        if proc = proc_read_fault then "svm read fault" else "svm write fault"
      in
      let reply =
        Rpckit.Client.call t.transport ~dst:t.manager ~prog:manager_prog ~proc
          ~label args
      in
      Rpckit.Xdr.read_opaque reply
    end
  in
  install_page t page data

let ensure_readable t page =
  match t.states.(page) with
  | Read_shared | Write_owned -> ()
  | Invalid ->
      t.read_faults <- t.read_faults + 1;
      fault t page ~proc:proc_read_fault;
      t.states.(page) <- Read_shared

let ensure_writable t page =
  match t.states.(page) with
  | Write_owned -> ()
  | Read_shared | Invalid ->
      fault t page ~proc:proc_write_fault;
      t.states.(page) <- Write_owned

let check_range t ~addr ~len =
  if addr < 0 || len < 0 || addr + len > t.pages * page_bytes then
    invalid_arg "Svm: access outside the shared region"

let read t ~addr ~len =
  check_range t ~addr ~len;
  let first = addr / page_bytes and last = (addr + max 0 (len - 1)) / page_bytes in
  for page = first to last do
    ensure_readable t page
  done;
  Cluster.Address_space.read t.space ~addr ~len

let write t ~addr data =
  check_range t ~addr ~len:(Bytes.length data);
  let len = Bytes.length data in
  let first = addr / page_bytes and last = (addr + max 0 (len - 1)) / page_bytes in
  for page = first to last do
    ensure_writable t page
  done;
  Cluster.Address_space.write t.space ~addr data

(* ------------------------------------------------------------------ *)
(* Introspection.                                                      *)

let state t ~page = t.states.(page)
let read_faults t = t.read_faults
