(* The flockc binary's input boundaries: a missing, misplaced or corrupt
   [-D] store, a malformed CSV, a flock naming an unloaded predicate and a
   bad [rules] / [maximal] argument are input errors (exit 1 with a
   one-line message; 2 under [lint]), never an uncaught exception
   (cmdliner's exit 125, which flockc also uses for an exceeded memory
   budget).  [rules] and [maximal] output on
   baskets.csv is pinned byte for byte.  Each case runs the built
   executable as a subprocess. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Paths next to this executable's build directory. *)
let sibling path =
  Filename.concat (Filename.dirname Sys.executable_name) ("../" ^ path)

let flockc = sibling "bin/flockc.exe"
let pairs = sibling "data/pairs.flock"
let baskets = sibling "data/baskets.csv"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Exit code, stdout and trimmed stderr of one flockc run. *)
let run_full args =
  let out = Filename.temp_file "flockc" ".out" in
  let err = Filename.temp_file "flockc" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove out; Sys.remove err) @@ fun () ->
  let code =
    Sys.command (Filename.quote_command flockc ~stdout:out ~stderr:err args)
  in
  code, read_file out, String.trim (read_file err)

(* Exit code and trimmed stderr of one flockc run. *)
let run args =
  let code, _, err = run_full args in
  code, err

let fresh_path () =
  let path = Filename.temp_file "qfcli" "" in
  Sys.remove path;
  path

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A store made by [flockc import] holding baskets.csv; [f] gets its
   directory and the heap file's path. *)
let with_store f =
  let dir = fresh_path () in
  Fun.protect ~finally:(fun () -> remove dir) @@ fun () ->
  let code, msg = run [ "import"; dir; "baskets=" ^ baskets ] in
  check_int ("import exits 0: " ^ msg) 0 code;
  check_bool "import creates its target" true (Sys.is_directory dir);
  f dir (Filename.concat dir "baskets.qfh")

let expect_input_error ~contains args =
  let code, msg = run args in
  check_int ("exit status of: " ^ msg) 1 code;
  if not (Test_util.contains ~sub:contains msg) then
    Alcotest.failf "expected %S in: %s" contains msg

let mine_db dir = [ "mine"; "-D"; dir; pairs ]

let with_csv contents f =
  let path = Filename.temp_file "qfcli" ".csv" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  f path

let test_store_is_a_file () =
  let file = Filename.temp_file "qfcli" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  expect_input_error ~contains:"loading store" (mine_db file);
  expect_input_error ~contains:"is not a directory" (mine_db file)

let test_store_missing_not_created () =
  let dir = fresh_path () in
  Fun.protect ~finally:(fun () -> remove dir) @@ fun () ->
  expect_input_error ~contains:"loading store" (mine_db dir);
  check_bool "a read-only command creates no directory" false
    (Sys.file_exists dir)

let rewrite path f =
  let bytes = read_file path in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (f (Bytes.of_string bytes)))

let test_store_truncated () =
  with_store @@ fun dir heap ->
  rewrite heap (fun b -> Bytes.sub_string b 0 100);
  expect_input_error ~contains:"is not page-aligned" (mine_db dir)

let test_store_bit_flipped () =
  with_store @@ fun dir heap ->
  (* The high byte of the arity of the last record written to the first
     data page (records fill a page from its end). *)
  rewrite heap (fun b ->
      let off = (2 * 4096) - 19 in
      Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor 0x10);
      Bytes.to_string b);
  expect_input_error ~contains:"loading store" (mine_db dir);
  expect_input_error ~contains:"Codec: truncated tuple" (mine_db dir)

let test_store_loads () =
  with_store @@ fun dir _ ->
  let code, msg = run (mine_db dir) in
  check_int ("mine over a good store: " ^ msg) 0 code

let test_unknown_predicate () =
  List.iter
    (fun cmd ->
      let code, msg = run [ cmd; "-d"; "other=" ^ baskets; pairs ] in
      check_int (cmd ^ " exit status") 1 code;
      Alcotest.(check string)
        (cmd ^ " message") "flockc: unknown predicate baskets" msg)
    [ "mine"; "run"; "explain" ];
  (* The mining conveniences name their relation with [-p]; it must be
     loaded and binary, and [rules] needs a support of at least 1. *)
  List.iter
    (fun cmd ->
      let code, msg = run [ cmd; "-d"; "baskets=" ^ baskets; "-p"; "nosuch" ] in
      check_int (cmd ^ " -p nosuch exit status") 1 code;
      Alcotest.(check string)
        (cmd ^ " -p nosuch message") "flockc: unknown predicate nosuch" msg;
      List.iter
        (fun csv ->
          with_csv csv @@ fun path ->
          expect_input_error ~contains:"flockc: -p baskets: expected a binary"
            [ cmd; "-d"; "baskets=" ^ path; "-s"; "1" ])
        [ "X\n1\n2\n"; "A,B,C\n1,2,3\n1,4,3\n" ])
    [ "rules"; "maximal" ];
  expect_input_error ~contains:"flockc: rules: support must be at least 1"
    [ "rules"; "-d"; "baskets=" ^ baskets; "-s"; "0" ]

(* A repeated header column is malformed input naming its line and
   column, in every command that loads CSV (it used to escape as an
   uncaught [Invalid_argument], exit 125). *)
let test_duplicate_header () =
  with_csv "A,A\n1,2\n" @@ fun path ->
  let data = "baskets=" ^ path in
  let contains = "line 1, column 3: duplicate column \"A\"" in
  List.iter
    (fun cmd -> expect_input_error ~contains [ cmd; "-d"; data; pairs ])
    [ "mine"; "run"; "explain" ];
  List.iter
    (fun cmd -> expect_input_error ~contains [ cmd; "-d"; data ])
    [ "rules"; "maximal" ];
  let dir = fresh_path () in
  Fun.protect ~finally:(fun () -> remove dir) @@ fun () ->
  expect_input_error ~contains [ "import"; dir; data ];
  check_bool "a failed import creates no store" false (Sys.file_exists dir)

(* lint's exit 1 means "diagnostics found"; a catalog it cannot load is
   unreadable input, exit 2. *)
let test_lint_unloadable_catalog () =
  let expect_unreadable ~contains args =
    let code, msg = run ("lint" :: pairs :: args) in
    check_int ("lint exit status of: " ^ msg) 2 code;
    if not (Test_util.contains ~sub:contains msg) then
      Alcotest.failf "expected %S in: %s" contains msg
  in
  with_csv "A,A\n1,2\n" (fun path ->
      expect_unreadable ~contains:"duplicate column" [ "-d"; "baskets=" ^ path ]);
  with_csv "BID,Item\n1,\"x\n" (fun path ->
      expect_unreadable ~contains:"line 2, column 3: unterminated quoted field"
        [ "-d"; "baskets=" ^ path ]);
  let dir = fresh_path () in
  Fun.protect ~finally:(fun () -> remove dir) @@ fun () ->
  expect_unreadable ~contains:"loading store" [ "-D"; dir ]

(* Golden output of the mining conveniences on baskets.csv. *)
let rules_golden =
  {|7 rules (support >= 2, confidence >= 0.50):
  "hamburger" -> "ketchup"  support 3  confidence 0.75  interest 2.50
  "ketchup" -> "hamburger"  support 3  confidence 1.00  interest 2.50
  "diapers" -> "beer"  support 5  confidence 0.83  interest 1.19
  "beer" -> "diapers"  support 5  confidence 0.71  interest 1.19
  "chips" -> "diapers"  support 2  confidence 0.67  interest 1.11
  "chips" -> "beer"  support 2  confidence 0.67  interest 0.95
  "hamburger" -> "beer"  support 2  confidence 0.50  interest 0.71
|}

let maximal_golden =
  {|level 1: 6 frequent 1-item sets
level 2: 5 frequent 2-item sets
6 maximal frequent itemsets:
  ("relish")
  ("beer", "chips")
  ("beer", "diapers")
  ("beer", "hamburger")
  ("chips", "diapers")
  ("hamburger", "ketchup")
|}

let test_mining_goldens () =
  List.iter
    (fun (cmd, golden) ->
      let code, out, err = run_full [ cmd; "-d"; "baskets=" ^ baskets; "-s"; "2" ] in
      check_int (cmd ^ " exit status: " ^ err) 0 code;
      Alcotest.(check string) (cmd ^ " output") golden out)
    [ "rules", rules_golden; "maximal", maximal_golden ]

let suite =
  [
    Alcotest.test_case "-D naming a regular file exits 1" `Quick
      test_store_is_a_file;
    Alcotest.test_case "-D naming a missing directory exits 1, creates none"
      `Quick test_store_missing_not_created;
    Alcotest.test_case "truncated heap file exits 1" `Quick
      test_store_truncated;
    Alcotest.test_case "bit-flipped heap file exits 1" `Quick
      test_store_bit_flipped;
    Alcotest.test_case "imported store loads" `Quick test_store_loads;
    Alcotest.test_case "unknown predicate exits 1 in mine/run/explain/rules/maximal"
      `Quick
      test_unknown_predicate;
    Alcotest.test_case "duplicate CSV header column exits 1" `Quick
      test_duplicate_header;
    Alcotest.test_case "lint with an unloadable catalog exits 2" `Quick
      test_lint_unloadable_catalog;
    Alcotest.test_case "rules/maximal output on baskets.csv" `Quick
      test_mining_goldens;
  ]
