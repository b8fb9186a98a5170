(* The storage substrate: binary codec, heap files of code records, and
   the directory store with its value tables. *)
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

(* [f] gets a fresh store, removed with its files afterwards. *)
let with_store f =
  let dir = temp_dir () in
  let store = Store.open_dir dir in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f store)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let test_codec_roundtrip () =
  let values =
    V.[
      Int 0; Int 42; Int (-7); Int max_int; Int min_int;
      Real 0.; Real 2.5; Real (-1e300); Real infinity; Real nan;
      Str ""; Str "plain"; Str "with \x00 nul and \xff bytes";
      Str (String.make 5000 'x') (* bigger than a heap-file block *);
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

let test_codec_table_roundtrip () =
  let values = V.[| Int 3; Str "hello"; Real 1.5; Str "" |] in
  check_bool "value table roundtrip" true
    (Array.for_all2 V.equal values
       (Codec.values_of_string (Codec.values_to_string values)));
  check_int "empty table" 0
    (Array.length (Codec.values_of_string (Codec.values_to_string [||])));
  let schema = Schema.of_list [ "A"; "Long_Column_Name"; "c3" ] in
  check_bool "schema roundtrip" true
    (Schema.equal schema (Codec.schema_of_string (Codec.schema_to_string schema)))

let fails f =
  match f () with
  | _ -> false
  | exception Failure _ -> true

let test_codec_corruption () =
  Alcotest.check_raises "bad tag" (Failure "Codec: bad value tag 'Z'") (fun () ->
      ignore (Codec.decode_value (Bytes.of_string "Zxxxxxxxx") 0));
  check_bool "truncated string detected" true
    (fails (fun () -> Codec.values_of_string "\001\000\000\000\002\255\255\255\255"));
  check_bool "a count the bytes cannot hold" true
    (fails (fun () -> Codec.values_of_string "\255\255\255\255"));
  check_bool "trailing bytes" true
    (fails (fun () -> Codec.values_of_string (Codec.values_to_string [||] ^ "x")));
  check_bool "a repeated column name" true
    (fails (fun () -> Codec.schema_of_string (Codec.values_to_string V.[| Str "A"; Str "A" |])))

(* Fuzz the decoder's robustness contract: on arbitrarily truncated or
   bit-flipped encodings of real values and value tables, decoding either succeeds
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

let gen_table = QCheck.Gen.(map Array.of_list (list_size (int_range 0 6) gen_value))

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

let fuzz_decode_table =
  QCheck.Test.make ~name:"codec fuzz: values_of_string on mangled input"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(gen_table >>= fun t -> mangle (Codec.values_to_string t)))
    (decodes_or_fails (fun b _ -> Codec.values_of_string (Bytes.to_string b)))

(* Code columns [0, n) and [n, 2n): codes well past a block's worth. *)
let code_cols n = [| Array.init n Fun.id; Array.init n (fun i -> n + i) |]

let test_heap_file_roundtrip () =
  let path = Filename.temp_file "qfheap" ".qfh" in
  let schema = Schema.of_list [ "X"; "Name" ] in
  let file = Heap_file.create path schema in
  let n = 5000 in
  let cols = code_cols n in
  for i = 0 to n - 1 do
    Heap_file.append_codes file cols i
  done;
  Heap_file.close file;
  let reopened = Heap_file.open_existing path in
  check_bool "schema preserved" true (Schema.equal schema (Heap_file.schema reopened));
  let chunk = Heap_file.to_chunk reopened in
  check_int "all rows back" n chunk.Chunkrel.nrows;
  check_bool "rows in storage order" true
    (Array.for_all2 (fun a b -> Array.sub a 0 n = b) chunk.Chunkrel.cols cols);
  let streamed = ref 0 in
  Heap_file.iter_codes
    (fun row ->
      if row <> [| !streamed; n + !streamed |] then
        Alcotest.failf "iter_codes: row %d" !streamed;
      incr streamed)
    reopened;
  check_int "iter_codes streams every row" n !streamed;
  Heap_file.close reopened;
  Sys.remove path

(* A heap file is its header, then exactly [4 * arity] bytes per row.  A
   file still being written reads back everything appended so far, and
   takes appends after a read. *)
let test_heap_file_layout () =
  let path = Filename.temp_file "qfheap" ".qfh" in
  let schema = Schema.of_list [ "X"; "Name" ] in
  let file = Heap_file.create path schema in
  let n = 3000 in
  let cols = code_cols n in
  for i = 0 to n - 2 do
    Heap_file.append_codes file cols i
  done;
  check_int "read while writing" (n - 1) (Heap_file.to_chunk file).Chunkrel.nrows;
  Heap_file.append_codes file cols (n - 1);
  let chunk = Heap_file.to_chunk file in
  check_bool "every row after an append" true (chunk.Chunkrel.cols = cols);
  check_int "body bytes" (8 * n) (Heap_file.body_bytes file);
  Heap_file.close file;
  let contents = read_file path in
  Alcotest.(check string) "magic" "QFHC" (String.sub contents 0 4);
  check_int "header plus 4 bytes per code"
    (20 + String.length (Codec.schema_to_string schema) + (8 * n))
    (String.length contents);
  Sys.remove path;
  check_bool "a missing file is a Failure" true
    (fails (fun () -> Heap_file.open_existing path));
  check_bool "and reading it creates nothing" false (Sys.file_exists path)

let test_heap_file_arity_check () =
  let path = Filename.temp_file "qfheap" ".qfh" in
  let file = Heap_file.create path (Schema.of_list [ "X" ]) in
  Alcotest.check_raises "arity" (Invalid_argument "Heap_file.append_codes: arity mismatch")
    (fun () -> Heap_file.append_codes file (code_cols 1) 0);
  Heap_file.close file;
  Sys.remove path

let test_store_roundtrip () =
  with_store @@ fun store ->
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
  with_store @@ fun store ->
  let dir = Store.dir store in
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
  with_store @@ fun store ->
  let dir = Store.dir store in
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
  with_store @@ fun store ->
  Store.save store "baskets" (Qf_relational.Catalog.find catalog "baskets");
  List.iter
    (fun support ->
      let streamed = File_mining.frequent_pairs_relation store "baskets" ~support in
      let flock =
        Qf_core.Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support
      in
      Alcotest.check Test_util.relation
        (Printf.sprintf "support %d" support)
        (Qf_core.Direct.run catalog flock)
        streamed)
    [ 5; 15; 40 ]

(* A (BID, Item) relation written as raw code records over the value
   table [Int 0 .. Int max]: rows may repeat, as no [Store.save] would
   write them. *)
let raw_baskets store rows =
  let max = List.fold_left (fun m (b, i) -> Stdlib.max m (Stdlib.max b i)) 0 rows in
  write_file
    (Filename.concat (Store.dir store) "baskets.qfv")
    (Codec.values_to_string (Array.init (max + 1) (fun i -> V.Int i)));
  let file =
    Heap_file.create
      (Filename.concat (Store.dir store) "baskets.qfh")
      (Schema.of_list [ "BID"; "Item" ])
  in
  let cols = [| Array.of_list (List.map fst rows); Array.of_list (List.map snd rows) |] in
  List.iteri (fun i _ -> Heap_file.append_codes file cols i) rows;
  Heap_file.close file

let test_file_mining_dedups () =
  with_store @@ fun store ->
  (* Duplicate rows must not inflate supports. *)
  raw_baskets store [ 1, 10; 1, 10; 1, 20; 2, 10; 2, 20; 2, 20 ];
  let pairs = File_mining.frequent_pairs store "baskets" ~support:2 in
  check_int "one pair" 1 (List.length pairs);
  let p = List.hd pairs in
  check_int "support 2, not 4" 2 p.File_mining.support;
  (* A load is stricter: a stored relation is a set. *)
  check_bool "load refuses the repeated rows" true
    (fails (fun () -> Store.load store "baskets"));
  (* Two codes for one value would make the pair (1, 1). *)
  write_file
    (Filename.concat (Store.dir store) "baskets.qfv")
    (Codec.values_to_string V.[| Int 1; Int 1; Int 2 |]);
  check_bool "a value twice in the table is refused" true
    (fails (fun () -> File_mining.frequent_pairs store "baskets" ~support:1))

let test_file_mining_counts () =
  with_store @@ fun store ->
  raw_baskets store [ 1, 1; 1, 2; 1, 3; 2, 1; 2, 2; 3, 1; 3, 2; 4, 3 ];
  let pairs = File_mining.frequent_pairs store "baskets" ~support:2 in
  (* {1,2}: baskets 1,2,3 -> 3.  {1,3} and {2,3}: only basket 1. *)
  check_int "one frequent pair" 1 (List.length pairs);
  let p = List.hd pairs in
  check_bool "pair (1,2)" true
    (V.equal p.File_mining.item1 (V.Int 1) && V.equal p.item2 (V.Int 2));
  check_int "support 3" 3 p.File_mining.support

(* Values a CSV file would misread or quote: numeric-looking strings,
   integral reals, empty strings, commas and quotes; and the reals whose
   equality is not bitwise (NaN, negative zero). *)
let gen_store_value =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> V.Int i) (oneof [ small_signed_int; int ]);
        map (fun i -> V.Real (float_of_int i)) small_signed_int;
        map (fun f -> V.Real f) (float_bound_inclusive 1e12);
        oneofl
          V.[ Str "42"; Str "1.0"; Str ""; Str ","; Str "a,b"; Str "\"";
              Str "say \"hi\", twice"; Str "-7"; Str "1e5"; Real infinity;
              Real neg_infinity; Real (-0.5); Real nan; Real (-0.) ];
        map V.str (string_size (int_bound 6));
      ])

let gen_mixed_relation =
  QCheck.Gen.(
    let* arity = int_range 0 3 in
    let* rows =
      frequency
        [ 1, return []; 4, list_size (int_bound 40) (list_repeat arity gen_store_value) ]
    in
    return (R.of_values (List.filteri (fun i _ -> i < arity) [ "A"; "B"; "C" ]) rows))

let prop_store_roundtrip =
  QCheck.Test.make ~name:"Store.load (Store.save r) = r over mixed values"
    ~count:200
    (QCheck.make ~print:(Format.asprintf "%a" R.pp) gen_mixed_relation)
    (fun rel ->
      with_store @@ fun store ->
      Store.save store "r" rel;
      R.equal rel (Store.load store "r"))

(* Every truncation of either file of a saved store, and every single
   bit flipped in it, either loads or raises [Failure] — the error
   [flockc] turns into exit 1.  No other exception may escape. *)
let test_store_corruption_sweep () =
  with_store @@ fun store ->
  let rel =
    R.of_values [ "BID"; "Item" ]
      (List.init 60 (fun i ->
           V.[ Int (i / 3); (if i mod 2 = 0 then Str (Printf.sprintf "item,%d" (i mod 7)) else Real (float_of_int i)) ]))
  in
  Store.save store "r" rel;
  let cases = ref 0 in
  List.iter
    (fun ext ->
      let path = Filename.concat (Store.dir store) ("r" ^ ext) in
      let good = read_file path in
      let try_load label contents =
        write_file path contents;
        incr cases;
        match Store.load store "r" with
        | _ -> ()
        | exception Failure _ -> ()
        | exception e ->
          Alcotest.failf "%s %s: %s escaped" ext label (Printexc.to_string e)
      in
      for len = 0 to String.length good - 1 do
        try_load (Printf.sprintf "cut at %d" len) (String.sub good 0 len)
      done;
      String.iteri
        (fun i c ->
          for bit = 0 to 7 do
            let b = Bytes.of_string good in
            Bytes.set b i (Char.chr (Char.code c lxor (1 lsl bit)));
            try_load (Printf.sprintf "bit %d flipped at %d" bit i) (Bytes.to_string b)
          done)
        good;
      write_file path good)
    [ ".qfv"; ".qfh" ];
  check_bool "swept both files" true (!cases > 9000);
  check_bool "the restored store loads" true (R.equal rel (Store.load store "r"))

(* A record count the file's length does not hold: [to_chunk] sizes its
   columns from the count, so a count over the records present would
   have it read past them, and one under would drop rows. *)
let test_store_count_mismatch () =
  with_store @@ fun store ->
  Store.save store "r" (R.of_values [ "A"; "B" ] V.[ [ Int 1; Int 2 ]; [ Int 2; Int 1 ] ]);
  let path = Filename.concat (Store.dir store) "r.qfh" in
  let good = read_file path in
  List.iter
    (fun count ->
      let b = Bytes.of_string good in
      Bytes.set_int64_le b 8 count;
      write_file path (Bytes.to_string b);
      check_bool (Printf.sprintf "count %Ld refused" count) true
        (fails (fun () -> Store.load store "r")))
    [ 0L; 1L; 3L; 1000L; Int64.max_int; -1L ];
  write_file path (good ^ "\000\000\000\000\000\000\000\000");
  check_bool "a record past the count refused" true (fails (fun () -> Store.load store "r"));
  (* An arity-0 record is 0 bytes, so no length bounds its count: a
     count over 1 is a repeated row. *)
  Store.save store "e" (R.of_values [] [ [] ]);
  let path = Filename.concat (Store.dir store) "e.qfh" in
  let b = Bytes.of_string (read_file path) in
  Bytes.set_int64_le b 8 Int64.max_int;
  write_file path (Bytes.to_string b);
  check_bool "an arity-0 count over 1 refused" true (fails (fun () -> Store.load store "e"))

(* A store saved in the paged layout, value table and all: the flat
   reader refuses it by its header, asking for a re-import. *)
let test_store_paged_layout () =
  with_store @@ fun store ->
  let rel = R.of_values [ "A"; "B" ] V.[ [ Int 1; Str "x" ]; [ Int 2; Str "y" ] ] in
  Store.save store "r" rel;
  let path = Filename.concat (Store.dir store) "r.qfh" in
  Test_util.write_paged_heap_file path (R.schema rel) [ [ 0; 1 ]; [ 2; 3 ] ];
  match Store.load store "r" with
  | _ -> Alcotest.fail "a paged-layout store loaded"
  | exception Failure msg ->
    check_bool ("asks for a re-import: " ^ msg) true
      (Test_util.contains ~sub:"re-import it with flockc import" msg)

(* A store written before value tables existed has only [.qfh] files. *)
let test_store_old_format () =
  with_store @@ fun store ->
  Store.save store "r" (R.of_values [ "A" ] V.[ [ Int 1 ] ]);
  Sys.remove (Filename.concat (Store.dir store) "r.qfv");
  match Store.load store "r" with
  | _ -> Alcotest.fail "an old-format store loaded"
  | exception Failure msg ->
    check_bool ("asks for a re-import: " ^ msg) true
      (Test_util.contains ~sub:"re-import" msg)

let suite =
  [
    Alcotest.test_case "file mining = flock (sweep)" `Quick
      test_file_mining_matches_flock;
    Alcotest.test_case "file mining dedups rows" `Quick test_file_mining_dedups;
    Alcotest.test_case "file mining counts" `Quick test_file_mining_counts;
    Alcotest.test_case "codec value roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec value-table/schema roundtrip" `Quick
      test_codec_table_roundtrip;
    Alcotest.test_case "codec corruption detected" `Quick test_codec_corruption;
    QCheck_alcotest.to_alcotest fuzz_decode_value;
    QCheck_alcotest.to_alcotest fuzz_decode_table;
    Alcotest.test_case "heap file roundtrip" `Quick test_heap_file_roundtrip;
    Alcotest.test_case "heap file is its header plus its records" `Quick
      test_heap_file_layout;
    Alcotest.test_case "heap file arity check" `Quick test_heap_file_arity_check;
    Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "store/catalog bridge" `Quick test_store_catalog_bridge;
    Alcotest.test_case "flock over stored relations" `Quick test_flock_over_store;
    QCheck_alcotest.to_alcotest prop_store_roundtrip;
    Alcotest.test_case "store truncation and bit-flip sweep" `Quick
      test_store_corruption_sweep;
    Alcotest.test_case "a record count that disagrees with the file length is refused"
      `Quick test_store_count_mismatch;
    Alcotest.test_case "a paged-layout store asks for a re-import" `Quick
      test_store_paged_layout;
    Alcotest.test_case "old-format store asks for a re-import" `Quick
      test_store_old_format;
  ]
