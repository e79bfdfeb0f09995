(* Export reference gate and code rules.

   Reads every library interface (.cmti) under lib/ for the values it
   exports, and every implementation (.cmt) under lib/, bin/,
   bench/suite, examples/ and test/ for the values it references.  A
   reference is a [Texp_ident] whose value description carries the
   declaration's uid, so module aliases ([module P = Workload.Programs],
   the wrapped-library alias modules, [Analysis.Static.*]) resolve for
   free and a name reused elsewhere cannot hide a dead export.  Record
   fields are not values and never count.

   It fails when an export is referenced by no other compilation unit;
   when an export is referenced only from test/ and its doc comment has
   no "Test-only: <reason>" marker; and when a marked export is
   referenced outside test/ (a stale marker).

   The same three rules hold for every optional argument an export's
   type declares: [?label] must be passed by an application in another
   unit, one passed only from test/ needs a "Test-only ?label: <reason>"
   marker in the value's doc comment, and a marked label passed outside
   test/ is stale.  An omitted optional argument appears in the typed
   tree as a ghost-located [None]; it does not count as passing.

   The counts of test-only exports and labels may only fall: each has a
   ceiling below, which a change that lowers the count lowers too, and
   the gate fails when a count rises above it.

   The same walk checks the code rules of [rules] below.

   Usage: deadcode.exe ROOT, where ROOT holds the built lib/, bin/,
   bench/, examples/ and test/ trees. *)

module Uid = Shape.Uid

let marker = "Test-only:"

(* Ceilings on the test-only exports and optional labels. *)
let max_test_only = 44
let max_test_only_labels = 13

type export = {
  name : string;
  loc : Location.t;
  marked : bool;
  labels : (string * bool) list;  (** each [?label], and whether marked *)
}

(* Where a referencing unit lives. *)
type place = Test | Other


(* The code rules.  A site is one mention of a declaration, keyed
   FILE:BINDING:DECL: the source file, the top-level binding or
   signature item it sits in, and the declaration's qualified name.  A
   value or constructor is named by its uid ([Sim.Proc.park],
   [Hashtbl.iter]), a type or module by its path through aliases and
   opens ([Sim.Ivar.t], [int32], [Obj]); [scan] also names a few
   shapes: [F ~l] (label [l] passed to [F]), [F ~l closure] (an
   argument for [l] other than a value bound at a unit's top level: a
   closure built per call), [F (float_of_int _)],
   [top-level T] (a top-level value of type [T]), [set_monitor] (a
   binding of that name) and [JSON literal] (a string that opens a JSON
   object).  A
   row's names match a declaration exactly or up to a dot.  The row
   fails on each site in its scope (key prefixes) that no allow entry (a
   key prefix, and why) covers, on an entry that covers no site, and on
   a whole-key entry that covers more than one.  A declaration's own
   unit may always name it. *)
type rule = {
  rule : string;
  names : string list;
  scope : string list;
  allow : (string * string) list;
  why : string;
}

let rule ?(allow = []) rule names scope why = { rule; names; scope; allow; why }
let lib dirs = List.map (fun d -> "lib/" ^ d ^ "/") dirs
let core = lib [ "sim"; "atm"; "core" ]

let rules =
  [
    rule "obj" [ "Obj" ] core "the core preallocates with typed dummies, not Obj";
    rule "effect" [ "Effect" ] [ "lib/" ] "block through Sim.Proc's sleep queues"
      ~allow:[ ("lib/sim/proc.ml:", "the scheduler") ];
    rule "minmax" [ "Stdlib.min"; "Stdlib.max" ] (lib [ "cluster" ] @ core)
      "polymorphic: use Int.min/max or Sim.Time.min/max";
    rule "boxed"
      [ "Sim.Time.scale (float_of_int _)"; "Metrics.Account.add (float_of_int _)";
        "Sim.Engine.schedule ~after" ]
      (lib [ "cluster"; "amsg"; "dds" ] @ core)
      "boxed per call under -opaque: use Sim.Time.mul, Account.add_int or \
       Engine.schedule_at";
    rule "int32" [ "int32"; "Int32.t" ]
      [ "lib/dds/plane.mli:"; "lib/core/remote_memory.mli:cas_" ]
      "a CAS word is boxed per call as an int32: carry it as an int";
    rule "order"
      [ "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
        "Hashtbl.to_seq_values"; "Sim.Int_table.fold" ]
      (lib [ "sim"; "atm"; "cluster"; "core"; "dfs"; "nameserver"; "replica";
             "svm"; "dds"; "amsg"; "rpc"; "obs"; "analysis" ])
      "bucket order moves with the hash seed and the table's history: sort \
       the result, or allow the site with why order cannot matter"
      ~allow:
        (List.map
           (fun (k, why) -> ("lib/" ^ k, why))
           [ ("analysis/monitor.ml:worst_cas_retries:Hashtbl.fold", "sorted");
             ("analysis/monitor.ml:break_cas_retries:Hashtbl.iter",
              "resets each matching chain, a per-key update");
             ("atm/switch.ml:queue_depth:Hashtbl.fold", "a sum");
             ("atm/switch.ml:links:Hashtbl.fold", "sorted by port");
             ("core/remote_memory.ml:notification_backlog:Sim.Int_table.fold", "a sum");
             ("core/remote_memory.ml:exports:Sim.Int_table.fold", "sorted by segment id");
             ("core/remote_memory.ml:crash:Sim.Int_table.fold", "sorted by request id");
             ("core/remote_memory.ml:restart_exports:Sim.Int_table.fold",
              "sorted by segment id");
             ("dfs/coherence.ml:holds_match:Hashtbl.fold", "a for-all");
             ("dfs/file_store.ml:statfs:Hashtbl.fold", "a sum");
             ("dfs/file_store.ml:set_attr:Hashtbl.iter",
              "truncate removes each block past the end, a per-key update");
             ("dfs/server.ml:push_block:Hashtbl.fold", "sorted by address");
             ("nameserver/clerk.ml:refresh_once:Hashtbl.fold", "sorted by name");
             ("obs/registry.ml:counters:Hashtbl.fold", "sorted");
             ("obs/registry.ml:series:Hashtbl.fold", "sorted by key");
             ("obs/registry.ml:ops:Hashtbl.fold", "sorted");
             ("obs/trace.ml:phase_totals:Hashtbl.fold", "sorted");
             ("replica/replica.ml:set:Hashtbl.fold", "sorted by address");
             ("replica/replica.ml:start_anti_entropy_daemon:Hashtbl.fold",
              "sorted by address");
             ("svm/svm.ml:invalidate_copies:Hashtbl.fold", "sorted by address") ]);
    rule "pool"
      [ "Atm.Frame.take"; "Atm.Frame.pin"; "Atm.Frame.pool"; "Atm.Frame.outstanding";
        "Atm.Frame.created"; "Atm.Nic.pool" ]
      [ "lib/" ] "a pooled frame has one owner"
      ~allow:
        [ ("lib/atm/", "the pool's own layer");
          ("lib/core/wire.ml", "the remote-memory frame builders");
          ("lib/core/remote_memory.ml:", "the remote-memory frame builders");
          ("lib/amsg/amsg.ml:", "the active-message frame builder") ];
    rule "release" [ "Atm.Frame.release" ] [ "lib/" ]
      "a frame goes back to its pool only from Cluster.Node.dispatch"
      ~allow:[ ("lib/cluster/node.ml:dispatch:Atm.Frame.release", "after its handler") ];
    rule "ivar" [ "Sim.Ivar" ]
      [ "lib/core/remote_memory.ml:"; "lib/core/pipeline.ml:"; "lib/dds/call.ml:" ]
      "a READ, CAS or RPC completes through its own pending record";
    rule "mailbox" [ "Sim.Mailbox" ] [ "lib/atm/" ]
      "the receive FIFO is a frame ring its reader parks on";
    rule "park" [ "Sim.Proc.park"; "Sim.Proc.unpark" ] [ "lib/"; "bin/" ]
      "a single-consumer wait: wait through Sim.Wait"
      ~allow:
        [ ("lib/sim/", "Sim.Wait, the wait every record embeds");
          ("lib/atm/nic.ml:", "the receive FIFO's one reader") ];
    rule "state"
      (List.map (( ^ ) "top-level ")
         [ "Stdlib.ref"; "Hashtbl"; "Ephemeron"; "Queue"; "Stack"; "Buffer"; "Atomic";
           "Sim.Int_table" ])
      [ "lib/" ]
      "process-global state: keep it in a record its owner creates"
      ~allow:
        [ ("lib/obs/trace.ml:", "the tracer, until it subscribes (ROADMAP item 6)");
          ("lib/sim/proc.ml:wait_span:", "the scheduler's span of the running wait");
          ("lib/sim/proc.ml:current:", "the scheduler's running process");
          ("lib/dds/call.ml:endpoints:",
           "each Amsg plane's endpoint, until it moves to its node (ROADMAP item 14)") ];
    rule "monitor" [ "set_monitor" ] [ "lib/"; "bin/" ]
      "observers subscribe to the node's event stream";
    rule "json" [ "JSON literal"; "Analysis.Report.Json" ] [ "bin/" ]
      "return a Metrics.Table report and let Cli.report write the JSON";
    rule "flags"
      [ "Names.Record.flag_valid"; "Names.Record.flag_invalid"; "Names.Record.flag_moved" ]
      [ "lib/"; "bin/"; "test/"; "examples/"; "bench/" ]
      "walk the chain through Names.Registry.walk, the one slot rule"
      ~allow:[ ("lib/nameserver/registry.ml:", "Registry.classify") ];
    rule "kind" [ "Dds.Kind.Dx"; "Dds.Kind.Rpc"; "Dds.Kind.Hybrid" ] [ "lib/dds/" ]
      "state the phase's rule to Dds.Plane.phase"
      ~allow:[ ("lib/dds/plane.ml:", "Plane.phase and Plane.flush") ];
    rule "classify" [ "Dds.Probe.walk ~classify closure" ] [ "lib/" ]
      "pass the walk a top-level classify function and its arguments: a \
       closure allocates per walk";
    rule "spin" [ "Sim.Proc.wait" ]
      [ "lib/core/hybrid.ml:"; "lib/experiments/amsg_bench.ml:" ]
      "poll a local word with Sim.Proc.spin: a Proc.wait loop allocates a \
       continuation per poll";
    rule "hybrid" [ "Sim.Proc.spin" ] [ "lib/" ]
      "transfer control through Rmem.Hybrid, the one request-slot/reply-slot \
       exchange"
      ~allow:
        [ ("lib/core/hybrid.ml:call:", "the exchange's reply wait");
          ("lib/experiments/amsg_bench.ml:",
           "Ablation G's active-message reply flag") ];
  ]

let rec walk dir f =
  Array.iter
    (fun entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then walk path f else f path)
    (try Sys.readdir dir with Sys_error _ -> [||])

let contains s sub =
  match Str.search_forward (Str.regexp_string sub) s 0 with
  | _ -> true
  | exception Not_found -> false

(* A unit or path name as source spells it: [Sim__Proc] and [Sim__.Proc]
   are [Sim.Proc], [Stdlib__Hashtbl] and [Stdlib.Hashtbl] are [Hashtbl]. *)
let norm s =
  let s = Str.global_replace (Str.regexp "__\\.?") "." s in
  if String.length s > 7 && String.sub s 0 7 = "Stdlib." && s.[7] <= 'Z' then
    String.sub s 7 (String.length s - 7)
  else s

(* Every .cmt or .cmti under [dir] in a dune object directory
   ([.NAME.objs/byte] or [.NAME.eobjs/byte]). *)
let annots dir ext =
  let acc = ref [] in
  walk dir (fun path ->
      let byte = Filename.dirname path in
      let objs = Filename.basename (Filename.dirname byte) in
      if
        Filename.check_suffix path ext
        && Filename.basename byte = "byte"
        && objs.[0] = '.'
        && Filename.check_suffix objs "objs"
      then acc := path :: !acc);
  List.sort compare !acc

let read path =
  try Cmt_format.read_cmt path
  with e ->
    Printf.eprintf "deadcode: cannot read %s: %s\n" path
      (Printexc.to_string e);
    exit 2

(* The doc comments among [attrs], joined. *)
let doc attrs =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      match a.attr_payload with
      | PStr [ { pstr_desc = Pstr_eval ({ pexp_desc = Pexp_constant c; _ }, _); _ } ]
        when a.attr_name.txt = "ocaml.doc" -> (
          match c with Pconst_string (s, _, _) -> Some s | _ -> None)
      | _ -> None)
    attrs
  |> String.concat "\n"

(* The optional labels of a value's type, outermost first. *)
let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, ret, _) -> l :: optional_labels ret
  | Tarrow (_, _, ret, _) -> optional_labels ret
  | Tpoly (ty, _) -> optional_labels ty
  | _ -> []

(* The values an interface exports, nested signatures included, keyed
   by the uid every reference to them carries. *)
let exports tbl modname (sg : Typedtree.signature) =
  let rec items prefix (sg : Typedtree.signature) =
    List.iter
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
            let doc = doc vd.val_attributes in
            Uid.Tbl.replace tbl vd.val_val.val_uid
              {
                name = prefix ^ "." ^ vd.val_name.txt;
                loc = vd.val_loc;
                marked = contains doc marker;
                labels =
                  List.map
                    (fun l -> (l, contains doc ("Test-only ?" ^ l ^ ":")))
                    (optional_labels vd.val_val.val_type);
              }
        | Tsig_module
            { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
            items (prefix ^ "." ^ m) sg
        | _ -> ())
      sg.sig_items
  in
  items (norm modname) sg

(* An optional argument the application left out: the typer fills it
   with a ghost-located [None]. *)
let omitted (e : Typedtree.expression) =
  e.exp_loc.loc_ghost
  &&
  match e.exp_desc with
  | Texp_construct (_, { cstr_name = "None"; _ }, []) -> true
  | _ -> false

(* [decl] matches a name [mem] holds, exactly or up to a dot. *)
let rec covered mem decl =
  mem decl
  ||
  match String.rindex_opt decl '.' with
  | Some i -> covered mem (String.sub decl 0 i)
  | None -> false

(* Whether any rule names [decl] or a prefix of it. *)
let wanted =
  let t = Hashtbl.create 64 in
  List.iter (fun r -> List.iter (fun n -> Hashtbl.replace t n ()) r.names) rules;
  covered (Hashtbl.mem t)

type site = { file : string; binding : string; decl : string; line : int }

let key s = String.concat ":" [ s.file; s.binding; s.decl ]

(* One unit's typed tree, walked once: every value uid it takes from
   another unit, each with [None], and each application of one with
   [Some l] for every optional label [l] it passes; and its sites.  Uids
   are numbered per unit, so a unit's own [let]s can share a uid with
   its interface's [val]s; those are skipped. *)
let scan exports (cmt : Cmt_format.cmt_infos) =
  let open Typedtree in
  let d = Tast_iterator.default_iterator in
  let file = Option.value cmt.cmt_sourcefile ~default:"" in
  let refs = ref [] and sites = ref [] and binding = ref "" in
  let site (loc : Location.t) decl =
    if wanted decl then
      sites := { file; binding = !binding; decl; line = loc.loc_start.pos_lnum } :: !sites
  in
  (* Local modules bound to a path or a functor application, and the
     latter's names. *)
  let aliases = Hashtbl.create 8 and instances = Hashtbl.create 8 in
  let rec root = function
    | Path.Pident id -> Ident.unique_name id
    | Pdot (p, _) | Papply (p, _) | Pextra_ty (p, _) -> root p
  in
  let rec path = function
    | Path.Pident id ->
        Option.value ~default:(Ident.name id)
          (Hashtbl.find_opt aliases (Ident.unique_name id))
    | Pdot (p, s) -> path p ^ "." ^ s
    | Papply (p, _) | Pextra_ty (p, _) -> path p
  in
  let path p = norm (path p) in
  let rec alias id (m : module_expr) =
    match m.mod_desc with
    | Tmod_ident (p, _) -> Hashtbl.replace aliases (Ident.unique_name id) (path p)
    | Tmod_apply (m, _, _) | Tmod_apply_unit m ->
        Hashtbl.replace instances (Ident.unique_name id) ();
        alias id m
    | Tmod_constraint (m, _, _, _) -> alias id m
    | _ -> ()
  in
  (* A value no interface under lib/ exports (the stdlib's, a test
     library's) is named by its [full] path when that runs through its
     unit, so [Effect.Deep.match_with] keeps its submodule; a
     constructor, a value reached through a functor instance
     ([By_length.find] of a [Hashtbl.Make]) or one through a unit's
     alias keeps its unit and its own name ([Hashtbl.find]). *)
  let foreign uid full last =
    match uid with
    | Uid.Item { comp_unit; _ } when comp_unit <> cmt.cmt_modname ->
        Some (uid, match Uid.Tbl.find_opt exports uid with
          | Some e -> e.name
          | None -> (
              let unit = norm comp_unit in
              match full with
              | Some full when String.starts_with ~prefix:(unit ^ ".") full -> full
              | _ -> unit ^ "." ^ last))
    | _ -> None
  in
  let value (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, vd) ->
        let full = if Hashtbl.mem instances (root p) then None else Some (path p) in
        foreign vd.val_uid full (Path.last p)
    | _ -> None
  in
  let constructor loc (c : Types.constructor_description) =
    Option.iter (fun (_, n) -> site loc n) (foreign c.cstr_uid None c.cstr_name)
  in
  (* The unit's top-level values: a function bound there is built once. *)
  let toplevel = Hashtbl.create 64 in
  (match cmt.cmt_annots with
  | Implementation str ->
      List.iter
        (fun (x : structure_item) ->
          match x.str_desc with
          | Tstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  List.iter
                    (fun id -> Hashtbl.replace toplevel (Ident.unique_name id) ())
                    (pat_bound_idents vb.vb_pat))
                vbs
          | _ -> ())
        str.str_items
  | _ -> ());
  let static (e : expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> Hashtbl.mem toplevel (Ident.unique_name id)
    | Texp_ident _ -> true
    | _ -> false
  in
  (* An argument [f] is applied to: a label passed (and whether a
     closure is built for it), or an int made a float. *)
  let argument (uid, f) ((label : Asttypes.arg_label), arg) =
    match arg with
    | Some a when not (omitted a) -> (
        (match label with
        | Optional l ->
            refs := (uid, Some l) :: !refs;
            site a.exp_loc (f ^ " ~" ^ l)
        | Labelled l ->
            site a.exp_loc (f ^ " ~" ^ l);
            if not (static a) then site a.exp_loc (f ^ " ~" ^ l ^ " closure")
        | Nolabel -> ());
        match a.exp_desc with
        | Texp_apply (g, _)
          when Option.map snd (value g) = Some "Stdlib.float_of_int" ->
            site a.exp_loc (f ^ " (float_of_int _)")
        | _ -> ())
    | _ -> ()
  in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_ident _ ->
        Option.iter
          (fun (uid, n) ->
            refs := (uid, None) :: !refs;
            site e.exp_loc n)
          (value e)
    | Texp_apply (f, args) ->
        Option.iter (fun f -> List.iter (argument f) args) (value f)
    | Texp_construct (_, c, _) -> constructor e.exp_loc c
    | Texp_constant (Const_string (s, _, _)) when contains s "{\"" ->
        site e.exp_loc "JSON literal"
    | Texp_letmodule (Some id, _, _, m, _) -> alias id m
    | _ -> ());
    d.expr sub e
  in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    (match p.pat_desc with
    | Tpat_construct (_, c, _, _) -> constructor p.pat_loc c
    | Tpat_var (_, { txt = "set_monitor"; _ }) -> site p.pat_loc "set_monitor"
    | _ -> ());
    d.pat sub p
  in
  let it =
    { d with expr; pat;
      typ = (fun sub t ->
        (match t.ctyp_desc with
        | Ttyp_constr (p, _, _) -> site t.ctyp_loc (path p)
        | _ -> ());
        d.typ sub t);
      module_expr = (fun sub m ->
        (match m.mod_desc with Tmod_ident (p, _) -> site m.mod_loc (path p) | _ -> ());
        d.module_expr sub m);
      module_type = (fun sub m ->
        (match m.mty_desc with
        | Tmty_ident (p, _) | Tmty_alias (p, _) -> site m.mty_loc (path p)
        | _ -> ());
        d.module_type sub m);
      module_binding = (fun sub mb ->
        Option.iter (fun id -> alias id mb.mb_expr) mb.mb_id;
        d.module_binding sub mb)}
  in
  let item name visit x = binding := name; visit it x in
  (match cmt.cmt_annots with
  | Implementation str ->
      List.iter
        (fun (x : structure_item) ->
          match x.str_desc with
          | Tstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  binding := (match vb.vb_pat.pat_desc with
                    | Tpat_var (id, _) | Tpat_alias (_, id, _) -> Ident.name id
                    | _ -> "_");
                  (* Its type, as the mutable container it may be. *)
                  (match Types.get_desc vb.vb_pat.pat_type with
                  | Tconstr (p, _, _) -> site vb.vb_loc ("top-level " ^ path p)
                  | _ -> ());
                  it.value_binding it vb)
                vbs
          | Tstr_module { mb_name = { txt = Some m; _ }; _ } -> item m it.structure_item x
          | Tstr_type (_, t :: _) -> item t.typ_name.txt it.structure_item x
          | _ -> item "_" it.structure_item x)
        str.str_items
  | Interface sg ->
      List.iter
        (fun (x : signature_item) ->
          match x.sig_desc with
          | Tsig_value vd -> item vd.val_name.txt it.signature_item x
          | Tsig_type (_, t :: _) -> item t.typ_name.txt it.signature_item x
          | Tsig_module { md_name = { txt = Some m; _ }; _ } ->
              item m it.signature_item x
          | _ -> item "_" it.signature_item x)
        sg.sig_items
  | _ -> ());
  (!refs, !sites)

(* Checks [r] against every site: prints each failure, and returns the
   failure count and the number of sites in its scope. *)
let check sites r =
  let at p s = String.starts_with ~prefix:p (key s) in
  let mine =
    List.filter
      (fun s ->
        covered (fun n -> List.mem n r.names) s.decl
        && List.exists (fun p -> at p s) r.scope)
      sites
  in
  let bad =
    List.filter (fun s -> not (List.exists (fun (p, _) -> at p s) r.allow)) mine
  in
  List.iter
    (fun s ->
      Printf.printf "%s:%d: %s names %s: %s (rule %s)\n" s.file s.line s.binding
        s.decl r.why r.rule)
    bad;
  let stale =
    List.filter
      (fun (p, _) ->
        let n = List.length (List.filter (at p) mine) in
        let whole = List.length (String.split_on_char ':' p) = 3 in
        let wrong = n = 0 || (whole && n > 1) in
        if wrong then
          Printf.printf "rule %s: allow entry %s matches %d sites, not %s\n"
            r.rule p n (if whole then "one" else "one or more");
        wrong)
      r.allow
  in
  (List.length bad + List.length stale, List.length mine)

let libraries root =
  let re = Str.regexp "(library[ \t\n]+(name[ \t\n]+\\([a-z_0-9]+\\))" in
  let acc = ref [] in
  walk (Filename.concat root "lib") (fun path ->
      if Filename.basename path = "dune" then
        let text = In_channel.with_open_bin path In_channel.input_all in
        match Str.search_forward re text 0 with
        | _ -> acc := (Filename.dirname path, Str.matched_group 1 text) :: !acc
        | exception Not_found -> ());
  !acc

let missing what dir =
  Printf.eprintf "deadcode: no %s under %s (missing dependency?)\n" what dir;
  exit 2

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  (* A library or tree whose objects are missing would export or
     reference nothing: fail instead of passing quietly. *)
  List.iter
    (fun (dir, name) ->
      let objs = Filename.concat dir ("." ^ name ^ ".objs") in
      if annots objs ".cmti" = [] then missing ".cmti" objs)
    (libraries root);
  let tbl = Uid.Tbl.create 2048 in
  let sites = ref [] in
  List.iter
    (fun path ->
      let cmt = read path in
      (match cmt.cmt_annots with
      | Interface sg -> exports tbl cmt.cmt_modname sg
      | _ -> ());
      sites := snd (scan tbl cmt) @ !sites)
    (annots (Filename.concat root "lib") ".cmti");
  let refs = Hashtbl.create 4096 in
  let places key = Option.value ~default:[] (Hashtbl.find_opt refs key) in
  List.iter
    (fun (dir, place) ->
      let cmts = annots (Filename.concat root dir) ".cmt" in
      if cmts = [] then missing ".cmt" dir;
      List.iter
        (fun path ->
          let keys, found = scan tbl (read path) in
          sites := found @ !sites;
          List.iter
            (fun key ->
              let ps = places key in
              if not (List.mem place ps) then Hashtbl.replace refs key (place :: ps))
            keys)
        cmts)
    [
      ("lib", Other);
      ("bin", Other);
      ("bench/suite", Other);
      ("examples", Other);
      ("test", Test);
    ];
  let all =
    Uid.Tbl.fold (fun uid e acc -> (uid, e) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> compare a.name b.name)
  in
  let values = List.map (fun (uid, e) -> (places (uid, None), e)) all in
  (* Each optional label as a pseudo-export named [Value ?label]. *)
  let labels =
    List.concat_map
      (fun (uid, e) ->
        List.map
          (fun (l, marked) ->
            ( places (uid, Some l),
              { e with name = e.name ^ " ?" ^ l; marked; labels = [] } ))
          e.labels)
      all
  in
  let count keep xs = List.length (List.filter keep xs) in
  let report xs what keep =
    List.iter
      (fun (_, e) ->
        Printf.printf "%s:%d: %s %s\n" e.loc.Location.loc_start.pos_fname
          e.loc.loc_start.pos_lnum e.name what)
      (List.filter keep xs);
    count keep xs
  in
  let unreferenced (ps, _) = ps = [] in
  let test_only (ps, _) = ps = [ Test ] in
  let unmarked x = test_only x && not (snd x).marked in
  let marked x = test_only x && (snd x).marked in
  let stale (ps, e) = e.marked && List.mem Other ps in
  let checked = List.map (check !sites) rules in
  let failures =
    report values "is referenced by no other compilation unit" unreferenced
    + report values
        ("is referenced only from test/ and has no " ^ marker ^ " marker")
        unmarked
    + report values ("carries " ^ marker ^ " but is referenced outside test/") stale
    + report labels "is passed by no other compilation unit" unreferenced
    + report labels
        "is passed only from test/ and has no \"Test-only ?label:\" marker"
        unmarked
    + report labels "carries a Test-only marker but is passed outside test/"
        stale
    + List.fold_left (fun acc (n, _) -> acc + n) 0 checked
  in
  let ceiling what n max =
    if n > max then
      Printf.printf "deadcode: %d test-only %s, above the ceiling of %d\n" n what max;
    Bool.to_int (n > max)
  in
  let failures =
    failures
    + ceiling "exports" (count test_only values) max_test_only
    + ceiling "optional labels" (count test_only labels) max_test_only_labels
  in
  Printf.printf
    "deadcode: %d exports, %d unreferenced, %d test-only (%d marked)\n"
    (List.length values) (count unreferenced values) (count test_only values)
    (count marked values);
  Printf.printf
    "deadcode: %d optional labels, %d never passed, %d test-only (%d marked)\n"
    (List.length labels) (count unreferenced labels) (count test_only labels)
    (count marked labels);
  Printf.printf "deadcode: %d code rules, sites found: %s\n" (List.length rules)
    (String.concat ", "
       (List.map2 (fun r (_, n) -> Printf.sprintf "%s %d" r.rule n) rules checked));
  if failures > 0 then exit 1
