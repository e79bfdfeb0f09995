(* Edge-case coverage for the small leaf modules. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- rights / status / generation codecs ------------- *)

let rights_code_roundtrip () =
  for code = 0 to 7 do
    check_int "rights code roundtrip" code
      (Rmem.Rights.to_code (Rmem.Rights.of_code code))
  done;
  check_bool "allows read" true
    Rmem.Rights.(allows read_only Read_op);
  check_bool "denies write" false
    Rmem.Rights.(allows read_only Write_op);
  check_bool "union" true
    (Rmem.Rights.make ~read:true ~write:true ()
    = Rmem.Rights.{ read_only with write = true })

let status_code_roundtrip () =
  List.iter
    (fun status ->
      check_bool
        (Rmem.Status.to_string status)
        true
        (Rmem.Status.of_code (Rmem.Status.to_code status) = status))
    [
      Rmem.Status.Ok;
      Rmem.Status.Bad_segment;
      Rmem.Status.Protection;
      Rmem.Status.Bounds;
      Rmem.Status.Stale_generation;
      Rmem.Status.Write_inhibited;
      Rmem.Status.Unpinned;
      Rmem.Status.Timed_out;
    ];
  check_bool "unknown code rejected" true
    (try
       ignore (Rmem.Status.of_code 99);
       false
     with Invalid_argument _ -> true);
  check_bool "check raises Timeout for Timed_out" true
    (try
       Rmem.Status.check Rmem.Status.Timed_out;
       false
     with Rmem.Status.Timeout -> true)

let generation_bounds () =
  check_bool "of_int rejects negatives" true
    (try
       ignore (Rmem.Generation.of_int (-1));
       false
     with Invalid_argument _ -> true);
  check_bool "of_int rejects overflow" true
    (try
       ignore (Rmem.Generation.of_int 0x10000);
       false
     with Invalid_argument _ -> true);
  check_bool "the successor of the last wraps past zero" true
    (Rmem.Generation.equal
       (Rmem.Generation.next (Rmem.Generation.of_int 0xFFFF))
       Rmem.Generation.initial)

(* ---------------- codec extras ---------------- *)

let codec_u64_and_padding () =
  let w = Atm.Codec.writer () in
  Atm.Codec.put_padding w 3;
  Atm.Codec.put_u8 w 7;
  let r = Atm.Codec.reader (Atm.Codec.contents w) in
  check_int "padding is zeros" 0 (Atm.Codec.get_u16 r + Atm.Codec.get_u8 r);
  check_int "after padding" 7 (Atm.Codec.get_u8 r);
  check_int "drained" 0 (Bytes.length (Atm.Codec.rest r))

let codec_rest_and_position () =
  let w = Atm.Codec.writer () in
  Atm.Codec.put_u16 w 5;
  Atm.Codec.put_bytes w (Bytes.of_string "tail");
  let r = Atm.Codec.reader (Atm.Codec.contents w) in
  let (_ : int) = Atm.Codec.get_u16 r in
  check_int "position" 2 (Atm.Codec.position r);
  Alcotest.(check bytes) "rest" (Bytes.of_string "tail") (Atm.Codec.rest r)

(* ---------------- config / link arithmetic ---------------- *)

let wire_time_arithmetic () =
  let config = Atm.Config.default in
  (* One 53-byte cell at 140 Mb/s is 424 bits / 140 = 3.03 us. *)
  let cell_us = Sim.Time.to_us (Atm.Config.cell_wire_time config) in
  check_bool "cell time ~3.03us" true (Rig.within ~tolerance:0.01 ~expected:3.028 cell_us);
  (* A 4 KB frame is 86 cells. *)
  check_int "frame time = 86 cells"
    (86 * Sim.Time.to_ns (Atm.Config.cell_wire_time config))
    (Sim.Time.to_ns (Atm.Config.frame_wire_time config 4096))

let link_busy_accounting () =
  let engine = Sim.Engine.create () in
  let link =
    Atm.Link.create engine Atm.Config.default ~deliver:(fun _ -> ())
  in
  let src = Atm.Addr.of_int 0 and dst = Atm.Addr.of_int 1 in
  Atm.Link.send link (Atm.Frame.make ~src ~dst (Bytes.make 4096 'x'));
  Sim.Engine.run engine;
  check_int "wire bytes" (86 * 53) (Atm.Link.wire_bytes link);
  check_int "busy equals serialization time"
    (Sim.Time.to_ns (Atm.Config.frame_wire_time Atm.Config.default 4096))
    (Sim.Time.to_ns (Atm.Link.busy_time link))

(* ---------------- metrics edges ---------------- *)

let bar_chart_zero_values () =
  let module T = Metrics.Table in
  let out =
    T.render
      (T.make ~layout:Bars
         [ T.label "group"; T.label "bar"; T.number "a" (Fixed 1) ]
         [ [ T.text "empty"; T.text "z"; T.num 0. ] ])
  in
  check_bool "renders without dividing by zero" true (String.length out > 0);
  (* A bar of a missing value, and bars with no segment column. *)
  check_bool "a missing bar renders empty" true
    (String.length
       (T.render
          (T.make ~layout:Bars
             [ T.label "group"; T.label "bar"; T.number "a" (Fixed 1) ]
             [ [ T.text "g"; T.text "m"; T.cell Missing ] ]))
    > 0);
  check_bool "bars with no segments render" true
    (String.length
       (T.render (T.make ~layout:Bars [ T.label "group"; T.label "bar" ] [ [ T.text "g"; T.text "b" ] ]))
    > 0);
  let missing = T.make [ T.label "x" ] [ [ T.cell Missing ]; [ T.cell ~band:[ Gt 1. ] (Text "t") ] ] in
  check_bool "a missing value is null" true
    (match Option.bind (Metrics.Json.member "rows" (T.to_json missing)) Metrics.Json.to_list with
    | Some (Metrics.Json.List [ Metrics.Json.Null ] :: _) -> true
    | _ -> false);
  check_int "a band on text or a missing value fails" 1 (List.length (T.violations missing))

let histogram_single_value () =
  let h = Metrics.Histogram.create () in
  Metrics.Histogram.add h 42.;
  check_bool "median of one sample is sane" true
    (Metrics.Histogram.percentile h 50. >= 42. *. 0.8
    && Metrics.Histogram.percentile h 50. <= 42. *. 1.3)

(* ---------------- address space word edge ---------------- *)

let word_ops_at_page_boundary () =
  let space = Cluster.Address_space.create ~asid:1 () in
  let page = Cluster.Address_space.page_size space in
  (* A word straddling the page boundary. *)
  Cluster.Address_space.write_word space ~addr:(page - 2) 0x11223344;
  Alcotest.(check int) "straddling word" 0x11223344
    (Cluster.Address_space.read_word space ~addr:(page - 2));
  check_bool "cas across boundary" true
    (Cluster.Address_space.cas_word space ~addr:(page - 2)
       ~old_value:0x11223344 ~new_value:0x55667788)

(* ---------------- prng extras ---------------- *)

(* Draws below and above 2^30, the width of one draw's bits. *)
let prng_extras () =
  let prng = Sim.Prng.create 3 in
  List.iter
    (fun bound ->
      let total = ref 0. in
      for _ = 1 to 2000 do
        let x = Sim.Prng.int prng bound in
        check_bool "in range" true (x >= 0 && x < bound);
        total := !total +. float_of_int x
      done;
      check_bool "mean ~(bound-1)/2" true
        (Rig.within ~tolerance:0.1 ~expected:(float_of_int (bound - 1) /. 2.)
           (!total /. 2000.)))
    [ 3; 1 lsl 30; 1 lsl 40 ];
  check_bool "bad bound rejected" true
    (try
       ignore (Sim.Prng.int prng 0);
       false
     with Invalid_argument _ -> true)

(* ---------------- nfs op label totality ---------------- *)

let labels_are_table_rows () =
  let ops =
    [
      Dfs.Nfs_ops.Null;
      Dfs.Nfs_ops.Statfs;
      Dfs.Nfs_ops.Get_attr { fh = 1 };
      Dfs.Nfs_ops.Lookup { dir = 1; name = "x" };
      Dfs.Nfs_ops.Read_link { fh = 1 };
      Dfs.Nfs_ops.Read { fh = 1; off = 0; count = 1 };
      Dfs.Nfs_ops.Read_dir { fh = 1; count = 1 };
      Dfs.Nfs_ops.Write { fh = 1; off = 0; data = Bytes.empty };
      Dfs.Nfs_ops.Set_attr { fh = 1; mode = 0; size = 0 };
      Dfs.Nfs_ops.Create { dir = 1; name = "x" };
      Dfs.Nfs_ops.Remove { dir = 1; name = "x" };
      Dfs.Nfs_ops.Rename { from_dir = 1; from_name = "x"; to_dir = 1; to_name = "y" };
      Dfs.Nfs_ops.Mkdir { dir = 1; name = "x" };
      Dfs.Nfs_ops.Rmdir { dir = 1; name = "x" };
    ]
  in
  List.iter
    (fun op ->
      check_bool "label is a Table 1a row" true
        (List.mem (Dfs.Nfs_ops.label op) Dfs.Nfs_ops.all_labels);
      check_bool "every request carries control bytes" true
        ((Dfs.Nfs_ops.request_traffic op).Dfs.Nfs_ops.control > 0))
    ops;
  check_int "an error reply carries no data" 0
    (Dfs.Nfs_ops.reply_traffic (Dfs.Nfs_ops.R_error 2)).Dfs.Nfs_ops.data;
  check_int "a label outside Table 1a has no calls" 0
    (Workload.Mix.calls_of "no such row")

let suite =
  [
    Alcotest.test_case "rights codes" `Quick rights_code_roundtrip;
    Alcotest.test_case "status codes" `Quick status_code_roundtrip;
    Alcotest.test_case "generation bounds" `Quick generation_bounds;
    Alcotest.test_case "codec u64 and padding" `Quick codec_u64_and_padding;
    Alcotest.test_case "codec rest and position" `Quick codec_rest_and_position;
    Alcotest.test_case "wire time arithmetic" `Quick wire_time_arithmetic;
    Alcotest.test_case "link busy accounting" `Quick link_busy_accounting;
    Alcotest.test_case "bar chart zero values" `Quick bar_chart_zero_values;
    Alcotest.test_case "histogram single value" `Quick histogram_single_value;
    Alcotest.test_case "word ops at page boundary" `Quick word_ops_at_page_boundary;
    Alcotest.test_case "prng pick and exponential" `Quick prng_extras;
    Alcotest.test_case "op labels are table rows" `Quick labels_are_table_rows;
  ]
