(* Joins, aggregates, CSV, catalog: the relational operators above storage.
   Joins are rule bodies, evaluated by the binding extension. *)
open Qf_relational

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let employees =
  Relation.of_values [ "Emp"; "Dept" ]
    Value.
      [
        [ Str "ann"; Str "eng" ];
        [ Str "bob"; Str "eng" ];
        [ Str "cat"; Str "ops" ];
        [ Str "dan"; Str "hr" ];
      ]

let budgets =
  Relation.of_values [ "Dept"; "Budget" ]
    Value.[ [ Str "eng"; Int 100 ]; [ Str "ops"; Int 50 ] ]

let join_catalog () =
  let cat = Catalog.create () in
  Catalog.add cat "employees" employees;
  Catalog.add cat "budgets" budgets;
  Catalog.add cat "budgeted" (Relation.project budgets [ "Dept" ]);
  cat

let tuple values = Tuple.of_list values

let test_equi_join () =
  let j =
    Test_util.tabulate (join_catalog ())
      "answer(Emp,Dept,Budget) :- employees(Emp,Dept) AND budgets(Dept,Budget)"
  in
  check_int "matches" 3 (Relation.cardinal j);
  check_bool "schema names the head's variables" true
    (Schema.equal (Relation.schema j) (Schema.of_list [ "Emp"; "Dept"; "Budget" ]));
  check_bool "ann row" true
    (Relation.mem j (tuple Value.[ Str "ann"; Str "eng"; Int 100 ]))

(* Stored column names play no part in a join: the shared variable
   does, and a head that repeats a variable gets a suffixed column. *)
let test_join_renames_collisions () =
  let cat = Catalog.create () in
  Catalog.add cat "a" (Relation.of_values [ "X"; "N" ] Value.[ [ Int 1; Int 5 ] ]);
  Catalog.add cat "b" (Relation.of_values [ "X"; "N" ] Value.[ [ Int 1; Int 6 ] ]);
  let j = Test_util.tabulate cat "answer(X,N,M) :- a(X,N) AND b(X,M)" in
  check_bool "one match on X" true
    (Relation.equal j
       (Relation.of_values [ "X"; "N"; "M" ] Value.[ [ Int 1; Int 5; Int 6 ] ]));
  check_int "sharing N too joins on both columns" 0
    (Relation.cardinal (Test_util.tabulate cat "answer(X,N) :- a(X,N) AND b(X,N)"));
  check_bool "collision suffixed" true
    (Schema.equal
       (Relation.schema (Test_util.tabulate cat "answer(X,N,N) :- a(X,N)"))
       (Schema.of_list [ "X"; "N"; "N_2" ]))

let test_cross_product () =
  let j =
    Test_util.tabulate (join_catalog ())
      "answer(D,B,D2,B2) :- budgets(D,B) AND budgets(D2,B2)"
  in
  check_int "cross size" 4 (Relation.cardinal j)

let test_semi_anti () =
  let cat = join_catalog () in
  let s =
    Test_util.tabulate cat
      "answer(Emp,Dept) :- employees(Emp,Dept) AND budgets(Dept,Budget)"
  in
  check_int "semi keeps matched" 3 (Relation.cardinal s);
  let a =
    Test_util.tabulate cat
      "answer(Emp,Dept) :- employees(Emp,Dept) AND NOT budgeted(Dept)"
  in
  check_int "anti keeps unmatched" 1 (Relation.cardinal a);
  check_bool "dan has no budget" true
    (Relation.mem a (tuple Value.[ Str "dan"; Str "hr" ]))

let test_aggregate_eval () =
  let schema = Schema.of_list [ "X"; "W" ] in
  let tuples =
    [ (Qf_relational.Tuple.of_array [| Value.Int 1; Value.Int 10 |]); (Qf_relational.Tuple.of_array [| Value.Int 2; Value.Int 30 |]) ]
  in
  check_bool "count" true
    (Value.equal (Aggregate.eval Count schema tuples) (Real 2.));
  check_bool "sum" true
    (Value.equal (Aggregate.eval (Sum "W") schema tuples) (Real 40.));
  check_bool "min" true
    (Value.equal (Aggregate.eval (Min "W") schema tuples) (Int 10));
  check_bool "max" true
    (Value.equal (Aggregate.eval (Max "W") schema tuples) (Int 30))

let test_aggregate_errors () =
  let schema = Schema.of_list [ "X" ] in
  Alcotest.check_raises "empty group"
    (Invalid_argument "Aggregate.eval: empty group") (fun () ->
      ignore (Aggregate.eval Count schema []));
  Alcotest.check_raises "sum of strings"
    (Aggregate.Non_numeric { column = "X"; value = Value.Str "a" }) (fun () ->
      ignore (Aggregate.eval (Sum "X") schema [ (Qf_relational.Tuple.of_array [| Value.Str "a" |]) ]))

let test_group_filter () =
  let r =
    Relation.of_values [ "G"; "V" ]
      Value.
        [
          [ Str "a"; Int 1 ];
          [ Str "a"; Int 2 ];
          [ Str "a"; Int 3 ];
          [ Str "b"; Int 1 ];
        ]
  in
  let out = Aggregate.group_filter r ~keys:[ "G" ] ~func:Count ~threshold:2. in
  check_int "one group passes" 1 (Relation.cardinal out);
  check_bool "group a" true (Relation.mem out (Qf_relational.Tuple.of_array [| Value.Str "a" |]));
  let sums = Aggregate.group_filter r ~keys:[ "G" ] ~func:(Sum "V") ~threshold:6. in
  check_int "sum filter" 1 (Relation.cardinal sums)

let test_group_by_counts () =
  let r =
    Relation.of_values [ "G"; "V" ]
      Value.[ [ Str "a"; Int 1 ]; [ Str "a"; Int 2 ]; [ Str "b"; Int 9 ] ]
  in
  let groups = Aggregate.group_by r ~keys:[ "G" ] ~func:Count in
  check_int "two groups" 2 (List.length groups);
  let find key =
    List.assoc_opt true
      (List.map (fun (k, v) -> Tuple.equal k (Qf_relational.Tuple.of_array [| Value.Str key |]), v) groups)
  in
  check_bool "count a = 2" true (find "a" = Some (Value.Real 2.));
  check_bool "count b = 1" true (find "b" = Some (Value.Real 1.))

let test_csv_roundtrip () =
  let r =
    Relation.of_values [ "Name"; "N" ]
      Value.
        [
          [ Str "plain"; Int 1 ];
          [ Str "with,comma"; Int 2 ];
          [ Str "with\"quote"; Int 3 ];
          [ Str "with\nnewline"; Int 4 ];
          [ Str "5"; Int 5 ];
        ]
  in
  let r' = Csv.parse_string (Csv.to_string r) in
  (* "5" reparses as Int 5 — type inference is lossy for numeric strings,
     so compare the textual form, which is stable. *)
  check_int "row count" (Relation.cardinal r) (Relation.cardinal r');
  Alcotest.(check string)
    "second roundtrip is a fixpoint" (Csv.to_string r') (Csv.to_string r')

let test_csv_typed_roundtrip () =
  let r =
    Relation.of_values [ "A"; "B"; "C" ]
      Value.[ [ Int 1; Real 2.5; Str "x y" ]; [ Int 2; Real 0.25; Str "z" ] ]
  in
  check_bool "exact roundtrip for unambiguous values" true
    (Relation.equal r (Csv.parse_string (Csv.to_string r)))

(* Writing then reading is the identity on typed values: strings full of
   the characters quoting exists for, and any int or real.  Strings that
   {!Value.of_string} would read as a number (or unquote) are excluded;
   that ambiguity is the format's, not the writer's. *)
let prop_csv_roundtrip =
  let gen_str =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'b'; ' '; ','; '"'; '\n'; '\r' ]) (int_range 0 6))
  in
  let reads_back s = match Value.of_string s with Value.Str s' -> s' = s | _ -> false in
  let gen_row =
    QCheck.Gen.(
      map3
        (fun s i f -> [ Value.Str s; Value.Int i; Value.Real f ])
        (gen_str |> map (fun s -> if reads_back s then s else "x"))
        int float)
  in
  let arb =
    QCheck.make
      ~print:(fun rows ->
        String.concat "; " (List.map (fun r -> String.concat "," (List.map Value.to_string r)) rows))
      QCheck.Gen.(list_size (int_range 0 8) gen_row)
  in
  QCheck.Test.make ~count:300 ~name:"csv: parse (to_string r) = r" arb (fun rows ->
      let r = Relation.of_values [ "S"; "N"; "R" ] rows in
      Relation.equal r (Csv.parse_string (Csv.to_string r)))

let test_csv_errors () =
  Alcotest.check_raises "empty input" (Failure "Csv.parse: empty input (missing header)")
    (fun () -> ignore (Csv.parse_string ""));
  let raises name msg text =
    Alcotest.check_raises name (Failure ("Csv.parse: " ^ msg)) (fun () ->
        ignore (Csv.parse_string text))
  in
  raises "ragged row" "line 2, column 1: row has 1 fields, expected 2"
    "A,B\nonly_one";
  (* Locations are physical lines, not record counts: the quoted newline
     puts the third record on line 4. *)
  raises "ragged row after a quoted newline"
    "line 4, column 1: row has 1 fields, expected 2" "A,B\n\"x\ny\",1\n1\n";
  raises "unterminated quote names its opening quote"
    "line 3, column 3: unterminated quoted field" "A,B\n1,2\n3,\"x\n\n";
  raises "duplicate header column" "line 1, column 5: duplicate column \"A\""
    "A,B,A\n1,2,3\n"

let test_csv_file_roundtrip () =
  let path = Filename.temp_file "qfcsv" ".csv" in
  let rel =
    Relation.of_values [ "A"; "B" ]
      Value.[ [ Int 1; Str "x,y" ]; [ Int 2; Str "line\nbreak" ] ]
  in
  Csv.save path rel;
  let back = Csv.load path in
  Sys.remove path;
  check_bool "file roundtrip" true (Relation.equal rel back)

let test_catalog () =
  let cat = Catalog.create () in
  Catalog.add cat "r" employees;
  check_bool "mem" true (Catalog.mem cat "r");
  check_int "stats cached" 4 (Statistics.cardinality (Catalog.stats cat "r"));
  let copy = Catalog.copy cat in
  Catalog.add copy "s" budgets;
  check_bool "copy isolated" false (Catalog.mem cat "s");
  Catalog.remove cat "r";
  check_bool "removed" false (Catalog.mem cat "r");
  check_bool "copy unaffected by remove" true (Catalog.mem copy "r");
  Alcotest.check_raises "find missing"
    (Failure "Catalog.find: unknown relation \"zz\"") (fun () ->
      ignore (Catalog.find cat "zz"))

let suite =
  [
    Alcotest.test_case "equi join" `Quick test_equi_join;
    Alcotest.test_case "join renames collisions" `Quick test_join_renames_collisions;
    Alcotest.test_case "cross product" `Quick test_cross_product;
    Alcotest.test_case "semi and anti join" `Quick test_semi_anti;
    Alcotest.test_case "aggregate eval" `Quick test_aggregate_eval;
    Alcotest.test_case "aggregate errors" `Quick test_aggregate_errors;
    Alcotest.test_case "group_filter" `Quick test_group_filter;
    Alcotest.test_case "group_by counts" `Quick test_group_by_counts;
    Alcotest.test_case "csv roundtrip with quoting" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv typed roundtrip" `Quick test_csv_typed_roundtrip;
    QCheck_alcotest.to_alcotest prop_csv_roundtrip;
    Alcotest.test_case "csv errors" `Quick test_csv_errors;
    Alcotest.test_case "csv file roundtrip" `Quick test_csv_file_roundtrip;
    Alcotest.test_case "catalog" `Quick test_catalog;
  ]
