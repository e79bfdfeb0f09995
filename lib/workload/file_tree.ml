(* Synthetic server namespace standing in for the paper's departmental
   exports (X-terminal fonts, source trees, /usr binaries): a modest
   number of directories holding read-mostly files of skewed sizes,
   plus symbolic links. *)

type t = {
  store : Dfs.File_store.t;
  files : int array;
  dirs : int array;
  symlinks : int array;
  file_zipf : Zipf.t;
  dir_zipf : Zipf.t;
}

(* A skewed size distribution reminiscent of binaries + fonts + source:
   many small files, a tail of larger ones, capped so a file's blocks
   stay cacheable. *)
let pick_size prng =
  let u = Sim.Prng.float prng in
  if u < 0.35 then 512 + Sim.Prng.int prng 1536
  else if u < 0.65 then 2048 + Sim.Prng.int prng 6144
  else if u < 0.85 then 8192 + Sim.Prng.int prng 8192
  else 16384 + Sim.Prng.int prng 49152

(* Bytes [from] to [from + len - 1] of the contents [start] names, at
   [at] of [dst]: the first 256-byte period byte by byte, then doubled
   by blits, since the period repeats. *)
let pattern_into start dst ~at ~from ~len =
  let period = Int.min len 256 in
  for i = 0 to period - 1 do
    Bytes.unsafe_set dst (at + i)
      (Char.unsafe_chr ((start + from + i) land 0xFF))
  done;
  let filled = ref period in
  while !filled < len do
    let n = Int.min !filled (len - !filled) in
    Bytes.blit dst at dst (at + !filled) n;
    filled := !filled + n
  done

(* Each block's span is filled where it lies in the store: no staging
   copy of the file. *)
let write_pattern store fh ~start ~len =
  Dfs.File_store.write_with store fh ~off:0 ~len (fun from block boff span ->
      pattern_into start block ~at:boff ~from ~len:span)

let dirs = 24
let files_per_dir = 16
let symlinks_per_dir = 2
let zipf_exponent = 1.05

let build prng =
  let store = Dfs.File_store.create () in
  let root = Dfs.File_store.root store in
  let files = ref [] and dir_list = ref [] and links = ref [] in
  for d = 0 to dirs - 1 do
    let dir =
      Dfs.File_store.mkdir store ~dir:root ~name:(Printf.sprintf "dir%03d" d) ()
    in
    dir_list := dir :: !dir_list;
    for f = 0 to files_per_dir - 1 do
      let fh =
        Dfs.File_store.create_file store ~dir
          ~name:(Printf.sprintf "file%03d.dat" f)
          ()
      in
      let size = pick_size prng in
      (* Deterministic contents so replays can verify reads. *)
      write_pattern store fh ~start:fh ~len:size;
      files := fh :: !files
    done;
    for s = 0 to symlinks_per_dir - 1 do
      let target = Printf.sprintf "/exports/dir%03d/file%03d.dat" d s in
      let fh =
        Dfs.File_store.symlink store ~dir
          ~name:(Printf.sprintf "link%02d" s)
          ~target
      in
      links := fh :: !links
    done
  done;
  let files = Array.of_list (List.rev !files) in
  let dirs_arr = Array.of_list (List.rev !dir_list) in
  let symlinks = Array.of_list (List.rev !links) in
  {
    store;
    files;
    dirs = dirs_arr;
    symlinks;
    file_zipf = Zipf.create ~exponent:zipf_exponent (Array.length files);
    dir_zipf = Zipf.create ~exponent:zipf_exponent (Array.length dirs_arr);
  }

let store t = t.store

let pick_file t prng = t.files.(Zipf.sample t.file_zipf prng)
let pick_dir t prng = t.dirs.(Zipf.sample t.dir_zipf prng)

let pick_symlink t prng =
  t.symlinks.(Sim.Prng.int prng (Array.length t.symlinks))

let pick_name_in t prng ~dir =
  let entries = Dfs.File_store.readdir t.store dir in
  let n = List.length entries in
  fst (List.nth entries (Sim.Prng.int prng n))
