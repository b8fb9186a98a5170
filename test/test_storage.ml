(* The storage substrate: binary codec, slotted pages, buffer pool, heap
   files, and the directory store. *)
open Qf_relational
open Qf_storage
module R = Qf_relational.Relation
module V = Qf_relational.Value
module Schema = Qf_relational.Schema
module Tuple = Qf_relational.Tuple

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let temp_dir () = Filename.temp_file "qfstore" "" |> fun f ->
  Sys.remove f;
  f

let test_codec_roundtrip () =
  let values =
    V.[
      Int 0; Int 42; Int (-7); Int max_int; Int min_int;
      Real 0.; Real 2.5; Real (-1e300); Real infinity; Real nan;
      Str ""; Str "plain"; Str "with \x00 nul and \xff bytes";
      Str (String.make 5000 'x') (* bigger than a page *);
    ]
  in
  List.iter
    (fun v ->
      let buf = Buffer.create 16 in
      Codec.encode_value buf v;
      let decoded, off = Codec.decode_value (Buffer.to_bytes buf) 0 in
      check_int "consumed all" (Buffer.length buf) off;
      (* NaN <> NaN under Value.equal's float equality; compare encodings. *)
      let buf2 = Buffer.create 16 in
      Codec.encode_value buf2 decoded;
      Alcotest.(check string)
        (Format.asprintf "value %a" V.pp v)
        (Buffer.contents buf) (Buffer.contents buf2))
    values

let test_codec_tuple_roundtrip () =
  let tup = (Qf_relational.Tuple.of_array [| V.Int 3; V.Str "hello"; V.Real 1.5 |]) in
  check_bool "tuple roundtrip" true
    (Tuple.equal tup (Codec.tuple_of_string (Codec.tuple_to_string tup)));
  let schema = Schema.of_list [ "A"; "Long_Column_Name"; "c3" ] in
  check_bool "schema roundtrip" true
    (Schema.equal schema (Codec.schema_of_string (Codec.schema_to_string schema)))

let test_codec_corruption () =
  Alcotest.check_raises "bad tag" (Failure "Codec: bad value tag 'Z'") (fun () ->
      ignore (Codec.decode_value (Bytes.of_string "Zxxxxxxxx") 0));
  check_bool "truncated string detected" true
    (try
       ignore (Codec.tuple_of_string "\001\000\002\255\255\255\255");
       false
     with Failure _ -> true)

(* Fuzz the decoder's robustness contract: on arbitrarily truncated or
   bit-flipped encodings of real values/tuples, decoding either succeeds
   or raises [Failure] — never any other exception, never an
   out-of-bounds access (which OCaml would surface as
   [Invalid_argument]). *)

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> V.Int i) int;
        map (fun f -> V.Real f) float;
        map (fun s -> V.Str s) (string_size (int_bound 40));
      ])

let gen_tuple =
  QCheck.Gen.(
    map
      (fun vs -> Tuple.of_array (Array.of_list vs))
      (list_size (int_range 1 6) gen_value))

(* An encoding, mangled: truncated to a random prefix and/or with one
   random bit flipped. *)
let mangle bytes_str =
  QCheck.Gen.(
    let n = String.length bytes_str in
    let* cut = int_bound n in
    let* flip = opt (int_bound (max 0 (cut - 1))) in
    let b = Bytes.of_string (String.sub bytes_str 0 cut) in
    (match flip with
    | Some i when i < Bytes.length b ->
      let* bit = int_bound 7 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      return b
    | _ -> return b))

let decodes_or_fails decode b =
  match decode b 0 with
  | _ -> true
  | exception Failure _ -> true
  | exception e ->
    QCheck.Test.fail_reportf "decoder leaked %s" (Printexc.to_string e)

let fuzz_decode_value =
  QCheck.Test.make ~name:"codec fuzz: decode_value on mangled input"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(
         gen_value >>= fun v ->
         let buf = Buffer.create 16 in
         Codec.encode_value buf v;
         mangle (Buffer.contents buf)))
    (decodes_or_fails Codec.decode_value)

let fuzz_decode_tuple =
  QCheck.Test.make ~name:"codec fuzz: decode_tuple on mangled input"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(
         gen_tuple >>= fun t ->
         let buf = Buffer.create 32 in
         Codec.encode_tuple buf t;
         mangle (Buffer.contents buf)))
    (decodes_or_fails Codec.decode_tuple)

let test_page_basics () =
  let page = Page.create () in
  check_int "empty" 0 (Page.count page);
  check_bool "add" true (Page.add page "first");
  check_bool "add2" true (Page.add page "second record");
  check_int "count" 2 (Page.count page);
  Alcotest.(check string) "get 0" "first" (Page.get page 0);
  Alcotest.(check string) "get 1" "second record" (Page.get page 1);
  (* Roundtrip through bytes. *)
  let reread = Page.of_bytes (Page.to_bytes page) in
  Alcotest.(check string) "persisted" "second record" (Page.get reread 1)

let test_page_fill_and_overflow () =
  let page = Page.create () in
  let record = String.make 100 'r' in
  let added = ref 0 in
  while Page.add page record do
    incr added
  done;
  (* 4096 - 4 header; each record takes 100 + 4 slot = 104. *)
  check_int "packs the page" ((4096 - 4) / 104) !added;
  check_bool "full page rejects" false (Page.add page record);
  Alcotest.check_raises "oversized record"
    (Invalid_argument
       (Printf.sprintf "Page.add: record of %d bytes exceeds the page payload"
          (Page.max_record_size + 1)))
    (fun () -> ignore (Page.add (Page.create ()) (String.make (Page.max_record_size + 1) 'x')))

let test_page_corrupt_header () =
  let bytes = Bytes.make Page.size '\255' in
  check_bool "corrupt header rejected" true
    (try
       ignore (Page.of_bytes bytes);
       false
     with Failure _ -> true)

let test_heap_file_roundtrip () =
  let path = Filename.temp_file "qfheap" ".qfh" in
  let schema = Schema.of_list [ "X"; "Name" ] in
  let file = Heap_file.create path schema in
  let n = 5000 in
  for i = 1 to n do
    Heap_file.append file (Qf_relational.Tuple.of_array [| V.Int i; V.Str (Printf.sprintf "row-%d" i) |])
  done;
  Heap_file.close file;
  let reopened = Heap_file.open_existing path in
  check_bool "schema preserved" true (Schema.equal schema (Heap_file.schema reopened));
  let rel = Heap_file.to_relation reopened in
  check_int "all rows back" n (R.cardinal rel);
  check_bool "spot check" true (R.mem rel (Qf_relational.Tuple.of_array [| V.Int 777; V.Str "row-777" |]));
  Heap_file.close reopened;
  Sys.remove path

let test_heap_file_small_cache () =
  (* A 2-page buffer pool forces eviction traffic; data must survive. *)
  let path = Filename.temp_file "qfheap" ".qfh" in
  let file = Heap_file.create ~capacity:2 path (Schema.of_list [ "X" ]) in
  let n = 3000 in
  for i = 1 to n do
    Heap_file.append file (Qf_relational.Tuple.of_array [| V.Int i |])
  done;
  let _, _, evictions = Heap_file.cache_stats file in
  check_bool "evictions happened" true (evictions > 0);
  let rel = Heap_file.to_relation file in
  check_int "all rows despite eviction" n (R.cardinal rel);
  Heap_file.close file;
  Sys.remove path

let test_heap_file_arity_check () =
  let path = Filename.temp_file "qfheap" ".qfh" in
  let file = Heap_file.create path (Schema.of_list [ "X" ]) in
  Alcotest.check_raises "arity" (Invalid_argument "Heap_file.append: arity mismatch")
    (fun () -> Heap_file.append file (Qf_relational.Tuple.of_array [| V.Int 1; V.Int 2 |]));
  Heap_file.close file;
  Sys.remove path

let test_store_roundtrip () =
  let dir = temp_dir () in
  let store = Store.open_dir dir in
  let rel =
    R.of_values [ "BID"; "Item" ]
      V.[ [ Int 1; Str "beer" ]; [ Int 2; Str "diapers" ] ]
  in
  Store.save store "baskets" rel;
  Store.save store "empty" (R.create (Schema.of_list [ "A" ]));
  Alcotest.(check (list string)) "list" [ "baskets"; "empty" ] (Store.list store);
  check_bool "mem" true (Store.mem store "baskets");
  check_bool "load equals" true (R.equal rel (Store.load store "baskets"));
  check_int "empty relation loads" 0 (R.cardinal (Store.load store "empty"));
  (* Overwrite. *)
  Store.save store "baskets" (R.of_values [ "BID"; "Item" ] V.[ [ Int 9; Str "x" ] ]);
  check_int "overwrite" 1 (R.cardinal (Store.load store "baskets"));
  Alcotest.check_raises "unsafe name"
    (Invalid_argument "Store: unsafe relation name \"../evil\"") (fun () ->
      Store.save store "../evil" rel)

let test_store_catalog_bridge () =
  let dir = temp_dir () in
  let catalog =
    (Qf_workload.Medical.generate
       { Qf_workload.Medical.default with n_patients = 200; seed = 9 })
      .catalog
  in
  let _store = Store.of_catalog dir catalog in
  let reloaded = Store.to_catalog (Store.open_dir dir) in
  List.iter
    (fun name ->
      check_bool
        (Printf.sprintf "%s survives the store" name)
        true
        (R.equal
           (Qf_relational.Catalog.find catalog name)
           (Qf_relational.Catalog.find reloaded name)))
    (Qf_relational.Catalog.names catalog)

(* End to end: run a flock against relations that lived on disk. *)
let test_flock_over_store () =
  let dir = temp_dir () in
  let catalog =
    Qf_workload.Market.catalog
      { Qf_workload.Market.default with n_baskets = 200; n_items = 40; seed = 4 }
  in
  ignore (Store.of_catalog dir catalog);
  let reloaded = Store.to_catalog (Store.open_dir dir) in
  let flock = Qf_core.Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support:10 in
  Alcotest.check Test_util.relation "same answers from disk"
    (Qf_core.Direct.run catalog flock)
    (Qf_core.Direct.run reloaded flock)

(* File-based mining (Sec. 1.4): the streaming two-pass a-priori agrees
   with the flock evaluated over the same data. *)
let test_file_mining_matches_flock () =
  let catalog =
    Qf_workload.Market.catalog
      { Qf_workload.Market.default with n_baskets = 300; n_items = 60; seed = 77 }
  in
  let baskets = Qf_relational.Catalog.find catalog "baskets" in
  let path = Filename.temp_file "qfmine" ".qfh" in
  let file = Heap_file.create path (R.schema baskets) in
  Heap_file.append_relation file baskets;
  List.iter
    (fun support ->
      let streamed = File_mining.frequent_pairs_relation file ~support in
      let flock =
        Qf_core.Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support
      in
      Alcotest.check Test_util.relation
        (Printf.sprintf "support %d" support)
        (Qf_core.Direct.run catalog flock)
        streamed)
    [ 5; 15; 40 ];
  Heap_file.close file;
  Sys.remove path

let test_file_mining_dedups () =
  let path = Filename.temp_file "qfmine" ".qfh" in
  let file = Heap_file.create path (Qf_relational.Schema.of_list [ "BID"; "Item" ]) in
  (* Duplicate rows must not inflate supports. *)
  List.iter
    (fun (b, i) -> Heap_file.append file (Qf_relational.Tuple.of_array [| V.Int b; V.Int i |]))
    [ 1, 10; 1, 10; 1, 20; 2, 10; 2, 20; 2, 20 ];
  let pairs = File_mining.frequent_pairs file ~support:2 in
  check_int "one pair" 1 (List.length pairs);
  let p = List.hd pairs in
  check_int "support 2, not 4" 2 p.File_mining.support;
  Heap_file.close file;
  Sys.remove path

let test_file_mining_counts () =
  let path = Filename.temp_file "qfmine" ".qfh" in
  let file = Heap_file.create path (Qf_relational.Schema.of_list [ "BID"; "Item" ]) in
  List.iter
    (fun (b, i) -> Heap_file.append file (Qf_relational.Tuple.of_array [| V.Int b; V.Int i |]))
    [ 1, 1; 1, 2; 1, 3; 2, 1; 2, 2; 3, 1; 3, 2; 4, 3 ];
  let pairs = File_mining.frequent_pairs file ~support:2 in
  (* {1,2}: baskets 1,2,3 -> 3.  {1,3} and {2,3}: only basket 1. *)
  check_int "one frequent pair" 1 (List.length pairs);
  let p = List.hd pairs in
  check_bool "pair (1,2)" true
    (V.equal p.File_mining.item1 (V.Int 1) && V.equal p.item2 (V.Int 2));
  check_int "support 3" 3 p.File_mining.support;
  Heap_file.close file;
  Sys.remove path

let suite =
  [
    Alcotest.test_case "file mining = flock (sweep)" `Quick
      test_file_mining_matches_flock;
    Alcotest.test_case "file mining dedups rows" `Quick test_file_mining_dedups;
    Alcotest.test_case "file mining counts" `Quick test_file_mining_counts;
    Alcotest.test_case "codec value roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec tuple/schema roundtrip" `Quick
      test_codec_tuple_roundtrip;
    Alcotest.test_case "codec corruption detected" `Quick test_codec_corruption;
    QCheck_alcotest.to_alcotest fuzz_decode_value;
    QCheck_alcotest.to_alcotest fuzz_decode_tuple;
    Alcotest.test_case "page basics" `Quick test_page_basics;
    Alcotest.test_case "page fill and overflow" `Quick test_page_fill_and_overflow;
    Alcotest.test_case "page corrupt header" `Quick test_page_corrupt_header;
    Alcotest.test_case "heap file roundtrip" `Quick test_heap_file_roundtrip;
    Alcotest.test_case "heap file with tiny cache" `Quick
      test_heap_file_small_cache;
    Alcotest.test_case "heap file arity check" `Quick test_heap_file_arity_check;
    Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "store/catalog bridge" `Quick test_store_catalog_bridge;
    Alcotest.test_case "flock over stored relations" `Quick test_flock_over_store;
  ]
