(* The coverage rewriter: one point per function body, match/try/function
   arm and if branch, keyed as scripts/deadcode keys its sites (file,
   top-level binding, kind, line).  A point's expression becomes
   [Coverage_rt.hit __coverage I; e], and the file registers its point
   table first.  A point whose expression only raises ([raise],
   [invalid_arg] or [failwith], also through [Printf.ksprintf], or
   [assert false]) is safety code: it is listed as exempt and not
   instrumented.  The body of a [fun] that returns another [fun] is not
   a point, so an instrumented function keeps its arity and allocates
   what it did. *)

open Ppxlib

let points = ref []
let next = ref 0
let path = ref []
let binding = ref "_"

let rec raises e =
  match e.pexp_desc with
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } -> true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = f; _ }; _ }, args) -> (
      match (f, args) with
      | (Lident ("raise" | "raise_notrace" | "invalid_arg" | "failwith")
        | Ldot (Lident "Stdlib", ("raise" | "raise_notrace" | "invalid_arg" | "failwith"))), _ ->
          true
      | ( Ldot (Lident ("Printf" | "Format"), ("ksprintf" | "kasprintf")),
          (_, { pexp_desc = Pexp_ident { txt = Lident ("invalid_arg" | "failwith"); _ }; _ }) :: _ ) ->
          true
      | _ -> false)
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> raises e
  | _ -> false

let point kind line e =
  let i = !next in
  incr next;
  let exempt = raises e in
  points := Printf.sprintf "%s\t%s\t%d\t%d" !binding kind line (Bool.to_int exempt) :: !points;
  if exempt then e
  else
    let loc = { e.pexp_loc with loc_ghost = true } in
    [%expr
      Coverage_rt.hit __coverage [%e Ast_builder.Default.eint ~loc i];
      [%e e]]

let line (l : location) = l.loc_start.pos_lnum

let arm c =
  match c.pc_rhs.pexp_desc with
  | Pexp_unreachable -> c
  | _ -> { c with pc_rhs = point "arm" (line c.pc_lhs.ppat_loc) c.pc_rhs }

let rec is_fun e =
  match e.pexp_desc with
  | Pexp_function _ -> true
  | Pexp_newtype (_, e) | Pexp_constraint (e, _) -> is_fun e
  | _ -> false

let rec name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> txt
  | Ppat_constraint (p, _) -> name p
  | _ -> "_"

let qualify n = String.concat "." (List.rev (n :: !path))

let mapper =
  object (self)
    inherit Ast_traverse.map as super

    method! structure_item si =
      match si.pstr_desc with
      | Pstr_value (rf, vbs) ->
          let vb v =
            binding := qualify (name v.pvb_pat);
            self#value_binding v
          in
          { si with pstr_desc = Pstr_value (rf, List.map vb vbs) }
      | Pstr_module { pmb_name = { txt = Some m; _ }; _ } ->
          let saved = !path in
          binding := qualify m;
          path := m :: saved;
          let si = super#structure_item si in
          path := saved;
          si
      | _ ->
          binding := qualify "_";
          super#structure_item si

    method! expression e =
      let e = super#expression e in
      let desc =
        match e.pexp_desc with
        | Pexp_function (ps, c, Pfunction_body b) when ps <> [] && not (is_fun b) ->
            Pexp_function (ps, c, Pfunction_body (point "body" (line e.pexp_loc) b))
        | Pexp_function (ps, c, Pfunction_cases (cases, l, a)) ->
            Pexp_function (ps, c, Pfunction_cases (List.map arm cases, l, a))
        | Pexp_match (s, cases) -> Pexp_match (s, List.map arm cases)
        | Pexp_try (s, cases) -> Pexp_try (s, List.map arm cases)
        | Pexp_ifthenelse (c, t, f) ->
            let branch b = point "branch" (line b.pexp_loc) b in
            Pexp_ifthenelse (c, branch t, Option.map branch f)
        | d -> d
      in
      { e with pexp_desc = desc }
  end

let impl str =
  points := [];
  next := 0;
  path := [];
  match str with
  | [] -> str
  | first :: _ -> (
      let str = mapper#structure str in
      match List.rev !points with
      | [] -> str
      | ps ->
          let loc = { first.pstr_loc with loc_ghost = true } in
          let file = Ast_builder.Default.estring ~loc first.pstr_loc.loc_start.pos_fname in
          let table = Ast_builder.Default.(pexp_array ~loc (List.map (estring ~loc) ps)) in
          [%stri let __coverage = Coverage_rt.register [%e file] [%e table]] :: str)

let () = Driver.register_transformation "coverage" ~impl
