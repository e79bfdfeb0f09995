(* Instrumentation events emitted around every client-facing operation.

   The structures cannot depend on the analysis layer (the dependency
   floor stops at the transfer planes), so they emit plain events and
   the observer — in practice an adapter over [Analysis.Monitor]'s
   logical-operation scopes — decides what to do with them.  [Begin]
   opens the operation on the issuing node; [Commit] closes it with the
   linearizable result: one logical read or write of the structure's
   designated cell (a word in some exported segment). *)

type op = Read of int32 | Write of int32 | Sync

type event =
  | Begin of { node : int }
  | Commit of {
      node : int;
      home : int;
      seg : int;
      gen : int;
      word : int;  (* byte offset of the designated word *)
      op : op;
    }

type t = event -> unit

(* Each emitter builds its event only when a hook is attached. *)

let begin_op hook ~node =
  match hook with None -> () | Some h -> h (Begin { node })

let commit hook ~node ~cell:(home, seg, gen) ~word ~read v =
  match hook with
  | None -> ()
  | Some h ->
      let v = Int32.of_int v in
      let op = if read then Read v else Write v in
      h (Commit { node; home; seg; gen; word; op })

let sync hook ~node ~cell:(home, seg, gen) =
  match hook with
  | None -> ()
  | Some h -> h (Commit { node; home; seg; gen; word = 0; op = Sync })
