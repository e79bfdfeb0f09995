(* Exported remote-memory segments.

   A segment is a contiguous piece of a process' virtual memory that the
   owner has made remotely accessible.  It carries the generation number
   of its export, per-importer access rights, a notification policy, and
   the write-inhibit flag used for synchronization. *)

type notify_policy = Always | Never | Conditional

type t = {
  id : int;
  name : string;
  space : Cluster.Address_space.t;
  base : int;
  len : int;
  generation : Generation.t;
  default_rights : Rights.t;
  grants : (int, Rights.t) Hashtbl.t; (* keyed by importer address *)
  notification : Notification.t;
  policy : notify_policy;
  mutable write_inhibited : bool;
  mutable revoked : bool;
}

let create ~id ~name ~space ~base ~len ~generation ~default_rights
    ~notification ~policy =
  if base < 0 || len <= 0 then invalid_arg "Segment.create: bad extent";
  {
    id;
    name;
    space;
    base;
    len;
    generation;
    default_rights;
    grants = Hashtbl.create 4;
    notification;
    policy;
    write_inhibited = false;
    revoked = false;
  }

let id t = t.id
let name t = t.name
let space t = t.space
let base t = t.base
let length t = t.len
let generation t = t.generation
let default_rights t = t.default_rights
let notification t = t.notification
let policy t = t.policy

let is_revoked t = t.revoked
let mark_revoked t = t.revoked <- true

let write_inhibited t = t.write_inhibited
let set_write_inhibit t inhibited = t.write_inhibited <- inhibited

let grant t ~importer rights =
  Hashtbl.replace t.grants (Atm.Addr.to_int importer) rights

let rights_for t ~importer =
  match Hashtbl.find t.grants (Atm.Addr.to_int importer) with
  | rights -> rights
  | exception Not_found -> t.default_rights

let contains t ~off ~count =
  off >= 0 && count >= 0 && off + count <= t.len

let should_notify t ~requested =
  match t.policy with
  | Always -> true
  | Never -> false
  | Conditional -> requested

let policy_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Conditional -> "conditional"
