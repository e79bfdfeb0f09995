(* Export reference gate.

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

   Usage: deadcode.exe ROOT, where ROOT holds the built lib/, bin/,
   bench/, examples/ and test/ trees. *)

module Uid = Shape.Uid

let marker = "Test-only:"

type export = {
  name : string;
  loc : Location.t;
  marked : bool;
  labels : (string * bool) list;  (** each [?label], and whether marked *)
}

(* Where a referencing unit lives. *)
type place = Test | Other

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
      | PStr
          [
            {
              pstr_desc =
                Pstr_eval
                  ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
              _;
            };
          ]
        when a.attr_name.txt = "ocaml.doc" ->
          Some s
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
            {
              md_name = { txt = Some m; _ };
              md_type = { mty_desc = Tmty_signature sg; _ };
              _;
            } ->
            items (prefix ^ "." ^ m) sg
        | _ -> ())
      sg.sig_items
  in
  items (Str.global_replace (Str.regexp_string "__") "." modname) sg

(* An optional argument the application left out: the typer fills it
   with a ghost-located [None]. *)
let omitted (e : Typedtree.expression) =
  e.exp_loc.loc_ghost
  &&
  match e.exp_desc with
  | Texp_construct (_, { cstr_name = "None"; _ }, []) -> true
  | _ -> false

(* Every value uid unit [self]'s structure takes from another unit,
   each with [None], and each application of one with [Some l] for
   every optional label [l] it passes.  Uids are numbered per unit, so
   a unit's own [let]s can share a uid with its interface's [val]s;
   those are skipped. *)
let references self (str : Typedtree.structure) =
  let seen = ref [] in
  let foreign (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (_, _, { val_uid = Item { comp_unit; _ } as uid; _ })
      when comp_unit <> self ->
        Some uid
    | _ -> None
  in
  let expr sub (e : Typedtree.expression) =
    (match foreign e with
    | Some uid -> seen := (uid, None) :: !seen
    | None -> ());
    (match e.exp_desc with
    | Texp_apply (f, args) -> (
        match foreign f with
        | Some uid ->
            List.iter
              (function
                | Asttypes.Optional l, Some a when not (omitted a) ->
                    seen := (uid, Some l) :: !seen
                | _ -> ())
              args
        | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str;
  !seen

(* The (directory, name) of every library lib/**/dune declares. *)
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
  List.iter
    (fun path ->
      let cmt = read path in
      match cmt.cmt_annots with
      | Interface sg -> exports tbl cmt.cmt_modname sg
      | _ -> ())
    (annots (Filename.concat root "lib") ".cmti");
  let refs = Hashtbl.create 4096 in
  let places key = Option.value ~default:[] (Hashtbl.find_opt refs key) in
  List.iter
    (fun (dir, place) ->
      let cmts = annots (Filename.concat root dir) ".cmt" in
      if cmts = [] then missing ".cmt" dir;
      List.iter
        (fun path ->
          let cmt = read path in
          match cmt.cmt_annots with
          | Implementation str ->
              List.iter
                (fun key ->
                  let ps = places key in
                  if not (List.mem place ps) then
                    Hashtbl.replace refs key (place :: ps))
                (references cmt.cmt_modname str)
          | _ -> ())
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
  in
  Printf.printf
    "deadcode: %d exports, %d unreferenced, %d test-only (%d marked)\n"
    (List.length values) (count unreferenced values) (count test_only values)
    (count marked values);
  Printf.printf
    "deadcode: %d optional labels, %d never passed, %d test-only (%d marked)\n"
    (List.length labels) (count unreferenced labels) (count test_only labels)
    (count marked labels);
  if failures > 0 then exit 1
