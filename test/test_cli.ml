(* The flockc binary's input boundaries: a missing, misplaced or corrupt
   [-D] store, a malformed CSV, a flock naming an unloaded predicate, a
   bad timeout or memory budget, a SUM over strings, a spill directory
   that cannot be created and a bad [rules] / [maximal] argument are
   errors (exit 1 with a one-line message; 2 under [lint]), never an
   uncaught exception (cmdliner's exit 125, which flockc also uses for an
   exceeded memory budget).  [rules] and [maximal] output on baskets.csv
   is pinned byte for byte.  Each case runs the built executable as a
   subprocess. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Paths next to this executable's build directory. *)
let sibling path =
  Filename.concat (Filename.dirname Sys.executable_name) ("../" ^ path)

let flockc = sibling "bin/flockc.exe"
let pairs = sibling "data/pairs.flock"
let fig1 = sibling "data/fig1.sql"
let baskets = sibling "data/baskets.csv"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Exit code, stdout and trimmed stderr of one flockc run, with the
   [VAR=value] bindings [env] added to its environment. *)
let run_full ?(env = []) args =
  let out = Filename.temp_file "flockc" ".out" in
  let err = Filename.temp_file "flockc" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove out; Sys.remove err) @@ fun () ->
  let code =
    Sys.command
      (Filename.quote_command "env" ~stdout:out ~stderr:err
         (env @ (flockc :: args)))
  in
  code, read_file out, String.trim (read_file err)

(* Exit code and trimmed stderr of one flockc run. *)
let run ?env args =
  let code, _, err = run_full ?env args in
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
  expect_input_error ~contains:"disagree with a count of" (mine_db dir)

let test_store_bit_flipped () =
  with_store @@ fun dir heap ->
  (* The high byte of the last record's second code, which ends the
     file: the code now points far past the value table. *)
  rewrite heap (fun b ->
      let off = Bytes.length b - 1 in
      Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor 0x10);
      Bytes.to_string b);
  expect_input_error ~contains:"loading store" (mine_db dir);
  expect_input_error ~contains:"is past its value table" (mine_db dir)

(* A store written in the old tuple format has no value tables. *)
let test_store_old_format () =
  with_store @@ fun dir _ ->
  Sys.remove (Filename.concat dir "baskets.qfv");
  expect_input_error ~contains:"loading store" (mine_db dir);
  expect_input_error ~contains:"re-import it" (mine_db dir)

(* A store in the paged layout heap files were once written in: its
   value table is current, its heap file no longer readable. *)
let test_store_paged_layout () =
  with_store @@ fun dir heap ->
  let module Heap_file = Qf_relational.Heap_file in
  let file = Heap_file.open_existing heap in
  let rows = ref [] in
  Heap_file.iter_codes (fun row -> rows := Array.to_list row :: !rows) file;
  let schema = Heap_file.schema file in
  Heap_file.close file;
  Test_util.write_paged_heap_file heap schema (List.rev !rows);
  expect_input_error ~contains:"loading store" (mine_db dir);
  expect_input_error ~contains:"re-import it with flockc import" (mine_db dir)

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
     loaded and binary, and both need a support of at least 1. *)
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
  List.iter
    (fun cmd ->
      expect_input_error
        ~contains:("flockc: " ^ cmd ^ ": support must be at least 1")
        [ cmd; "-d"; "baskets=" ^ baskets; "-s"; "0" ])
    [ "rules"; "maximal" ]

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

(* [run], [mine] and [sql] share one evaluator dispatch: every mode gives
   the same CSV from each, the Fig. 1 SQL compiling to the Fig. 2
   flock. *)
let test_evaluators_agree () =
  let data = [ "-d"; "baskets=" ^ baskets ] in
  List.iter
    (fun mode ->
      List.iter
        (fun (cmd, file) ->
          let code, out, err = run_full ([ cmd; "-m"; mode ] @ data @ [ file ]) in
          check_int (Printf.sprintf "%s -m %s exit status: %s" cmd mode err) 0 code;
          Alcotest.(check string)
            (Printf.sprintf "%s -m %s output" cmd mode)
            "$1,$2\nbeer,diapers\nhamburger,ketchup\n" out)
        [ "run", pairs; "mine", pairs; "sql", fig1 ])
    [ "direct"; "plan"; "dynamic"; "naive" ]

(* A malformed or negative timeout or budget, from a flag or from the
   environment, is an input error naming its source (it used to be an
   uncaught [Invalid_argument], exit 125, or silently ignored). *)
let governed_data = [ "-d"; "baskets=" ^ baskets; pairs ]
let mine flags = ("mine" :: flags) @ governed_data
let explain_profile flags = ("explain" :: "--profile" :: flags) @ governed_data

let test_bad_governor_settings () =
  List.iter
    (fun (env, flags, contains) ->
      (* [explain --profile] reads the variables too. *)
      List.iter
        (fun command ->
          let code, msg = run ~env (command flags) in
          check_int ("exit status of: " ^ msg) 1 code;
          if not (Test_util.contains ~sub:contains msg) then
            Alcotest.failf "expected %S in: %s" contains msg)
        (if env = [] then [ mine ] else [ mine; explain_profile ]))
    [
      [], [ "--timeout=-1" ], "flockc: --timeout \"-1\": expected";
      [], [ "--timeout=abc" ], "flockc: --timeout \"abc\": expected";
      [], [ "--mem-budget=garbage" ], "flockc: --mem-budget \"garbage\": expected";
      [ "QF_TIMEOUT=-1" ], [], "flockc: QF_TIMEOUT \"-1\": expected";
      [ "QF_TIMEOUT=abc" ], [], "flockc: QF_TIMEOUT \"abc\": expected";
      [ "QF_MEM_BUDGET=garbage" ], [], "flockc: QF_MEM_BUDGET \"garbage\": expected";
    ];
  (* A flag overrides its variable, and an empty variable is unset. *)
  let code, msg = run ~env:[ "QF_TIMEOUT=abc" ] (mine [ "--timeout=60" ]) in
  check_int ("flag over a bad variable: " ^ msg) 0 code;
  let code, msg = run ~env:[ "QF_MEM_BUDGET=" ] (mine []) in
  check_int ("empty variable: " ^ msg) 0 code

(* [explain --profile] takes its budget and deadline from the variables
   when no flag is given, as [mine] does: a 1 KiB budget exits 125 from
   the variable as from the flag, and an expired deadline 124. *)
let test_explain_reads_governor_variables () =
  List.iter
    (fun (env, flags, expected) ->
      let code, msg = run ~env (explain_profile flags) in
      check_int
        (Printf.sprintf "%s: exit status of: %s"
           (String.concat " " (env @ flags)) msg)
        expected code)
    [
      [ "QF_MEM_BUDGET=1k" ], [], 125;
      [], [ "--mem-budget=1k" ], 125;
      [ "QF_TIMEOUT=0.000000001" ], [], 124;
    ]

(* A spill directory that cannot be created is an environment error: a
   3,000-basket CSV spills under a 64 KiB budget, and with [TMPDIR] under
   a missing directory [mine] exits 1 naming the directory and the OS
   error, leaving no spill directory anywhere. *)
let test_spill_dir_uncreatable () =
  let rows =
    List.init 3000 (fun b ->
        String.concat ""
          (List.init 8 (fun j ->
               Printf.sprintf "b%d,i%d\n" b (((b * 7) + (j * 13)) mod 40))))
  in
  with_csv (String.concat "" ("BID,Item\n" :: rows)) @@ fun csv ->
  let missing = fresh_path () in
  let tmpdir = Filename.concat missing "x" in
  let code, msg =
    run ~env:[ "TMPDIR=" ^ tmpdir ]
      [ "mine"; "--mem-budget=64k"; "-d"; "baskets=" ^ csv; pairs ]
  in
  check_int ("exit status of: " ^ msg) 1 code;
  let prefix =
    Printf.sprintf "flockc: mine: cannot create spill directory %s/qf_spill."
      tmpdir
  in
  if
    not
      (String.starts_with ~prefix msg
      && Test_util.contains ~sub:": No such file or directory" msg)
  then
    Alcotest.failf "expected %S<pid>.<n>: No such file or directory in: %s"
      prefix msg;
  check_bool "one line" false (String.contains msg '\n');
  check_bool "the missing directory is not created" false
    (Sys.file_exists missing);
  (* The directory is [qf_spill.<pid>.<n>]: no directory of that run is
     left in the ordinary temp directory either. *)
  let rest =
    String.sub msg (String.length prefix)
      (String.length msg - String.length prefix)
  in
  let pid = List.hd (String.split_on_char '.' rest) in
  let leftovers =
    Sys.readdir (Filename.get_temp_dir_name ())
    |> Array.exists (String.starts_with ~prefix:("qf_spill." ^ pid ^ "."))
  in
  check_bool "no spill directory left behind" false leftovers

let with_flock text f =
  let path = Filename.temp_file "qfcli" ".flock" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  f path

(* MAX of a string column never passes the threshold: an empty answer in
   every mode, not an uncaught exception. *)
let test_max_over_strings () =
  with_flock
    "QUERY:\nanswer(B,I) :- baskets(B,$1) AND baskets(B,I)\n\
     FILTER:\nMAX(answer.I) >= 3\n"
  @@ fun path ->
  List.iter
    (fun mode ->
      let code, out, err =
        run_full [ "mine"; "-m"; mode; "-d"; "baskets=" ^ baskets; path ]
      in
      check_int (Printf.sprintf "mine -m %s exit status: %s" mode err) 0 code;
      Alcotest.(check string) ("mine -m " ^ mode ^ " output") "$1\n" out)
    [ "plan"; "direct"; "dynamic"; "naive" ]

(* A head constant under [-m dynamic], COUNT and SUM over the constant's
   column: the answer of every other mode, with no fallback. *)
let test_dynamic_head_constant () =
  List.iter
    (fun filter ->
      with_flock
        ("QUERY:\nanswer(B,5) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2\n\
          FILTER:\n" ^ filter ^ "\n")
      @@ fun path ->
      List.iter
        (fun mode ->
          let code, out, err =
            run_full [ "run"; "-m"; mode; "-d"; "baskets=" ^ baskets; path ]
          in
          check_int (Printf.sprintf "%s, -m %s exit status: %s" filter mode err)
            0 code;
          check_bool (filter ^ ": no fallback") false
            (Test_util.contains ~sub:"falling back" err);
          Alcotest.(check string)
            (Printf.sprintf "%s, -m %s output" filter mode)
            "$1,$2\nbeer,diapers\nhamburger,ketchup\n" out)
        [ "dynamic"; "direct"; "plan"; "naive" ])
    [ "COUNT(answer(*)) >= 3"; "SUM(answer.c1) >= 15" ]

(* SUM over a column holding strings is an input error naming the column
   and the value, in every mode of [run] and under [mine], in memory and
   spilled: exit 1, not the 125 of an exceeded budget. *)
let test_sum_over_strings () =
  with_flock
    "QUERY:\nanswer(B,I) :- baskets(B,$1) AND baskets(B,I)\n\
     FILTER:\nSUM(answer.I) >= 3\n"
  @@ fun path ->
  let data = [ "-d"; "baskets=" ^ baskets; path ] in
  List.iter
    (fun args ->
      expect_input_error ~contains:"SUM(I) over the non-numeric value \"" args)
    (List.map (fun mode -> [ "run"; "-m"; mode ] @ data)
       [ "plan"; "direct"; "dynamic"; "naive" ]
    @ [ "mine" :: data; [ "mine"; "--mem-budget=4k" ] @ data ])

(* The mixed-measure flock of test_dynamic's "bounding filters over a
   mixed measure": basket 1 weighs 5 and "x", and NOT bad(W) drops "x".
   MAX and SUM answer a and b in every mode. *)
let test_bounding_mixed_measure () =
  let csv text f =
    let path = Filename.temp_file "qfcli" ".csv" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    f path
  in
  csv "B,I\n1,a\n2,a\n3,b\n" @@ fun baskets ->
  csv "B,W\n1,5\n1,x\n2,1\n3,7\n" @@ fun weight ->
  csv "W\nx\n" @@ fun bad ->
  List.iter
    (fun agg ->
      with_flock
        ("QUERY:\n\
          answer(B,W) :- baskets(B,$1) AND weight(B,W) AND NOT bad(W)\n\
          FILTER:\n" ^ agg ^ "(answer.W) >= 3\n")
      @@ fun path ->
      List.iter
        (fun mode ->
          let code, out, err =
            run_full
              [
                "run"; "-m"; mode; "-d"; "baskets=" ^ baskets; "-d";
                "weight=" ^ weight; "-d"; "bad=" ^ bad; path;
              ]
          in
          let what = Printf.sprintf "%s, -m %s" agg mode in
          check_int (what ^ " exit status: " ^ err) 0 code;
          Alcotest.(check string) (what ^ " output") "$1\na\nb\n" out)
        [ "naive"; "direct"; "plan"; "dynamic" ])
    [ "MAX"; "SUM" ]

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

(* A relation loaded with a different arity than the flock uses is an
   input error naming the predicate, both arities and where the relation
   came from, for [-d] and [-D] alike (it used to escape [mine] and [run]
   as an uncaught [Eval.Error], exit 125, and pass [explain]). *)
let test_arity_mismatch () =
  with_csv "a\n1\n2\n" @@ fun path ->
  List.iter
    (fun cmd ->
      expect_input_error
        ~contains:
          (Printf.sprintf "flockc: predicate baskets: arity 1 in %s, but the \
                           flock uses arity 2" path)
        [ cmd; "-d"; "baskets=" ^ path; pairs ])
    [ "mine"; "run"; "explain" ];
  let dir = fresh_path () in
  Fun.protect ~finally:(fun () -> remove dir) @@ fun () ->
  let code, msg = run [ "import"; dir; "baskets=" ^ path ] in
  check_int ("import exits 0: " ^ msg) 0 code;
  List.iter
    (fun cmd ->
      expect_input_error
        ~contains:
          (Printf.sprintf "flockc: predicate baskets: arity 1 in the store %s, \
                           but the flock uses arity 2" dir)
        [ cmd; "-D"; dir; pairs ])
    [ "mine"; "run"; "explain" ]

(* {1 Mutational fuzzing}

   Byte-level mutants of the two fixtures, data/pairs.flock and
   data/baskets.csv: deletes, inserts, bit flips and truncations, one to
   three per case, applied to one fixture at a time.  Every mutant must
   give an exit code [flockc --help] documents for the command, with no
   uncaught exception on stderr: [lint] exits 0 (clean), 1 (findings) or
   2 (unreadable input), and an ungoverned [mine] or [explain --profile]
   0 or 1 (an input error).  The seed is fixed and the case count small, so each pass of
   the suite runs the same sixty mutants. *)

type mutation = Delete of int | Insert of int * char | Flip of int * int | Truncate of int

let mutate text = function
  | _ when text = "" -> text
  | Delete i ->
    let i = i mod String.length text in
    String.sub text 0 i ^ String.sub text (i + 1) (String.length text - i - 1)
  | Insert (i, c) ->
    let i = i mod (String.length text + 1) in
    String.sub text 0 i ^ String.make 1 c ^ String.sub text i (String.length text - i)
  | Flip (i, bit) ->
    let i = i mod String.length text in
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor (1 lsl bit)) else c)
      text
  | Truncate i -> String.sub text 0 (i mod String.length text)

let gen_mutation =
  QCheck.Gen.(
    let pos = int_bound 1000 in
    oneof
      [
        map (fun i -> Delete i) pos;
        map2 (fun i c -> Insert (i, c)) pos
          (oneof [ char; oneofl [ ','; '"'; '\n'; '$'; '('; ')'; '<'; '.'; '%' ] ]);
        map2 (fun i b -> Flip (i, b)) pos (int_bound 7);
        map (fun i -> Truncate i) pos;
      ])

let print_mutation = function
  | Delete i -> Printf.sprintf "delete %d" i
  | Insert (i, c) -> Printf.sprintf "insert %C at %d" c i
  | Flip (i, b) -> Printf.sprintf "flip bit %d at %d" b i
  | Truncate i -> Printf.sprintf "truncate at %d" i

let arb_mutant =
  QCheck.make
    ~print:(fun (csv, ms) ->
      Printf.sprintf "%s: %s"
        (if csv then "baskets.csv" else "pairs.flock")
        (String.concat ", " (List.map print_mutation ms)))
    QCheck.Gen.(pair bool (list_size (int_range 1 3) gen_mutation))

let prop_mutants =
  QCheck.Test.make ~count:60
    ~name:"mutated flock or CSV: documented exit codes, no uncaught exception"
    arb_mutant (fun (csv, mutations) ->
      let mutant path = List.fold_left mutate (read_file path) mutations in
      let flock = if csv then read_file pairs else mutant pairs in
      with_csv (if csv then mutant baskets else read_file baskets) @@ fun data ->
      let flock_path = Filename.temp_file "qfcli" ".flock" in
      Fun.protect ~finally:(fun () -> Sys.remove flock_path) @@ fun () ->
      Out_channel.with_open_bin flock_path (fun oc -> output_string oc flock);
      let data = [ "-d"; "baskets=" ^ data ] in
      List.for_all
        (fun (args, allowed) ->
          let code, err = run args in
          if List.mem code allowed && not (Test_util.contains ~sub:"uncaught exception" err)
          then true
          else
            QCheck.Test.fail_reportf "flockc %s exited %d:\n%s"
              (String.concat " " args) code err)
        [
          ("lint" :: flock_path :: data), [ 0; 1; 2 ];
          ("mine" :: data) @ [ flock_path ], [ 0; 1 ];
          ("explain" :: "--profile" :: data) @ [ flock_path ], [ 0; 1 ];
        ])

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
    Alcotest.test_case "old-format store exits 1 asking for a re-import"
      `Quick test_store_old_format;
    Alcotest.test_case "imported store loads" `Quick test_store_loads;
    Alcotest.test_case "unknown predicate exits 1 in mine/run/explain/rules/maximal"
      `Quick
      test_unknown_predicate;
    Alcotest.test_case "duplicate CSV header column exits 1" `Quick
      test_duplicate_header;
    Alcotest.test_case "lint with an unloadable catalog exits 2" `Quick
      test_lint_unloadable_catalog;
    Alcotest.test_case "run/mine/sql agree in every mode" `Quick
      test_evaluators_agree;
    Alcotest.test_case "bad timeout or budget exits 1 naming its source"
      `Quick test_bad_governor_settings;
    Alcotest.test_case "mine: MAX over strings exits 0 in every mode" `Quick
      test_max_over_strings;
    Alcotest.test_case "rules/maximal output on baskets.csv" `Quick
      test_mining_goldens;
    Alcotest.test_case "run -m dynamic over a head constant" `Quick
      test_dynamic_head_constant;
    Alcotest.test_case "SUM over strings exits 1 naming column and value"
      `Quick test_sum_over_strings;
    Alcotest.test_case "bounding filters over a mixed measure" `Quick
      test_bounding_mixed_measure;
    Alcotest.test_case "paged-layout store exits 1 asking for a re-import"
      `Quick test_store_paged_layout;
    Alcotest.test_case "explain --profile reads QF_MEM_BUDGET and QF_TIMEOUT"
      `Quick test_explain_reads_governor_variables;
    Alcotest.test_case "arity mismatch exits 1 in mine/run/explain" `Quick
      test_arity_mismatch;
    Alcotest.test_case "uncreatable spill directory exits 1 naming it" `Quick
      test_spill_dir_uncreatable;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xf1ce |])
      prop_mutants;
  ]
