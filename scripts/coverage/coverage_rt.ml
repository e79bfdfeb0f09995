(* The runtime of an instrumented build.  Each instrumented file
   registers its points at initialisation and gets one counter per
   point; at exit, if COVERAGE_DIR is set, the process writes every
   point with its count to a fresh file there, one line per point:
   FILE INDEX BINDING KIND LINE EXEMPT COUNT, tab-separated.  Many
   processes write into one directory; scripts/coverage/report.ml adds
   their counts up. *)

type file = { name : string; points : string array; hits : int array }

let files = ref []

let register name points =
  let hits = Array.make (Array.length points) 0 in
  files := { name; points; hits } :: !files;
  hits

let hit hits i = Array.unsafe_set hits i (Array.unsafe_get hits i + 1)

(* A file that no other process has opened: O_EXCL, with a fresh random
   name on a clash.  Its own PRNG state, so the program's is untouched. *)
let create dir =
  let st = Random.State.make_self_init () in
  let rec go n =
    let path = Filename.concat dir (Printf.sprintf "%08x.cov" (Random.State.bits st)) in
    try open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_text ] 0o644 path
    with Sys_error _ when n < 100 -> go (n + 1)
  in
  go 0

let dump dir =
  let oc = create dir in
  List.iter
    (fun f ->
      Array.iteri
        (fun i p -> Printf.fprintf oc "%s\t%d\t%s\t%d\n" f.name i p f.hits.(i))
        f.points)
    !files;
  close_out oc

let () =
  at_exit (fun () ->
      match Sys.getenv_opt "COVERAGE_DIR" with
      | Some dir when !files <> [] -> dump dir
      | _ -> ())
