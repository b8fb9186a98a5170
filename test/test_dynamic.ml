(* Dynamic filter-step selection (Sec. 4.4). *)
open Qf_core
module R = Qf_relational.Relation
module V = Qf_relational.Value
module Catalog = Qf_relational.Catalog

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let medical_flock threshold =
  Parse.flock_exn
    (Printf.sprintf
       {|QUERY:
answer(P) :-
    exhibits(P,$s) AND
    treatments(P,$m) AND
    diagnoses(P,D) AND
    NOT causes(D,$s)
FILTER:
COUNT(answer.P) >= %d|}
       threshold)

let medical_catalog () =
  (Qf_workload.Medical.generate
     { Qf_workload.Medical.default with n_patients = 400; seed = 11 })
    .catalog

let run_exn ?config cat flock =
  match Dynamic.run ?config cat flock with
  | Ok r -> r
  | Error e -> Alcotest.failf "Dynamic.run: %s" e

let test_equivalence_sweep () =
  let cat = medical_catalog () in
  List.iter
    (fun threshold ->
      let flock = medical_flock threshold in
      let dynamic = run_exn cat flock in
      Alcotest.check Test_util.relation
        (Printf.sprintf "threshold %d" threshold)
        (Direct.run cat flock) dynamic.answers)
    [ 2; 5; 20; 60 ]

let test_equivalence_across_configs () =
  let cat = medical_catalog () in
  let flock = medical_flock 15 in
  let expected = Direct.run cat flock in
  List.iter
    (fun (rf, imf) ->
      let config = { Dynamic.ratio_factor = rf; improvement_factor = imf } in
      let result = run_exn ~config cat flock in
      Alcotest.check Test_util.relation
        (Printf.sprintf "config %.1f/%.1f" rf imf)
        expected result.answers)
    [ 0.0, 0.0; 0.5, 0.5; 1.0, 0.5; 10.0, 1.0; 1000., 1000. ]

let test_trace_covers_every_literal () =
  let cat = medical_catalog () in
  let flock = medical_flock 15 in
  let result = run_exn cat flock in
  check_int "one decision per body literal" 4 (List.length result.trace)

let test_aggressive_config_filters () =
  let cat = medical_catalog () in
  let flock = medical_flock 15 in
  let eager =
    run_exn ~config:{ Dynamic.ratio_factor = 1e9; improvement_factor = 1e9 }
      cat flock
  in
  check_bool "some step filtered under an eager config" true
    (List.exists (fun (d : Dynamic.decision) -> d.filtered) eager.trace);
  let never =
    run_exn ~config:{ Dynamic.ratio_factor = 0.; improvement_factor = 0. }
      cat flock
  in
  check_bool "no step filtered under a reluctant config" true
    (List.for_all (fun (d : Dynamic.decision) -> not d.filtered) never.trace)

let test_survivors_recorded () =
  let cat = medical_catalog () in
  let flock = medical_flock 15 in
  let eager =
    run_exn ~config:{ Dynamic.ratio_factor = 1e9; improvement_factor = 1e9 }
      cat flock
  in
  List.iter
    (fun (d : Dynamic.decision) ->
      if d.filtered then begin
        check_bool "survivors present" true (d.survivors <> None);
        check_bool "survivors <= assignments" true
          (Option.get d.survivors <= d.assignments)
      end)
    eager.trace

let test_union_supported () =
  let cat = Catalog.create () in
  Catalog.add cat "p"
    (R.of_values [ "X"; "Y" ]
       V.[ [ Int 1; Int 2 ]; [ Int 2; Int 1 ]; [ Int 3; Int 1 ]; [ Int 1; Int 3 ] ]);
  let flock =
    Parse.flock_exn
      "QUERY:\nanswer(X) :- p(X,$a)\nanswer(X) :- p($a,X)\nFILTER:\nCOUNT(answer.X) >= 2"
  in
  match Dynamic.run cat flock with
  | Error e -> Alcotest.failf "union dynamic: %s" e
  | Ok r ->
    Alcotest.check Test_util.relation "union dynamic = direct"
      (Direct.run cat flock) r.answers

(* The soundness subtlety the per-branch bounds exist for: an assignment
   that fails the threshold within every single branch but passes through
   the union must survive. *)
let test_union_crosses_branches () =
  let cat = Catalog.create () in
  (* $a = 7: branch 1 contributes {1}, branch 2 contributes {2} — each
     branch alone has count 1 < 2, the union has count 2. *)
  Catalog.add cat "q"
    (R.of_values [ "X"; "Y" ] V.[ [ Int 1; Int 7 ]; [ Int 9; Int 9 ] ]);
  Catalog.add cat "r"
    (R.of_values [ "X"; "Y" ] V.[ [ Int 2; Int 7 ]; [ Int 9; Int 8 ] ]);
  let flock =
    Parse.flock_exn
      "QUERY:\nanswer(X) :- q(X,$a)\nanswer(X) :- r(X,$a)\nFILTER:\nCOUNT(answer.X) >= 2"
  in
  let direct = Direct.run cat flock in
  check_bool "union-only assignment passes directly" true
    (R.mem direct (Qf_relational.Tuple.of_array [| V.Int 7 |]));
  (* Force the most aggressive filtering so a naive per-branch prune would
     kill $a = 7. *)
  let config = { Dynamic.ratio_factor = 1e9; improvement_factor = 1e9 } in
  match Dynamic.run ~config cat flock with
  | Error e -> Alcotest.failf "union dynamic: %s" e
  | Ok r ->
    Alcotest.check Test_util.relation "aggressive union dynamic = direct"
      direct r.answers

let test_union_webwords_dynamic () =
  let cat =
    Qf_workload.Webdocs.generate
      { Qf_workload.Webdocs.default with n_docs = 150; n_anchors = 500; seed = 6 }
  in
  let flock =
    Parse.flock_exn
      {|QUERY:
answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2) AND $1 < $2
answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1) AND $1 < $2
FILTER:
COUNT(answer(*)) >= 5|}
  in
  match Dynamic.run cat flock with
  | Error e -> Alcotest.failf "union dynamic: %s" e
  | Ok r ->
    Alcotest.check Test_util.relation "Fig. 4 union dynamic = direct"
      (Direct.run cat flock) r.answers

(* The full Sec. 4.4 trace of the Fig. 4 union under the default config,
   as recorded before the executor grouped through the evaluator's FILTER
   kernel: every decision's rows, assignments and survivors must stay
   put. *)
let test_union_webwords_trace () =
  let cat =
    Qf_workload.Webdocs.generate
      { Qf_workload.Webdocs.default with n_docs = 150; n_anchors = 500; seed = 6 }
  in
  let flock =
    Parse.flock_exn
      {|QUERY:
answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2) AND $1 < $2
answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1) AND $1 < $2
FILTER:
COUNT(answer(*)) >= 5|}
  in
  let expected =
    [
      "rule 0: inTitle(D,$1)", 571, 191, true, Some 120;
      "rule 0: inTitle(D,$2)", 1906, 1207, true, Some 959;
      "rule 0: $1 < $2", 587, 427, false, None;
      "rule 1: link(A,D1,D2)", 500, 0, false, None;
      "rule 1: inAnchor(A,$1)", 1335, 233, false, None;
      "rule 1: inTitle(D2,$2)", 4868, 2107, true, Some 1227;
      "rule 1: $1 < $2", 1650, 619, false, None;
      "rule 2: link(A,D1,D2)", 500, 0, false, None;
      "rule 2: inAnchor(A,$2)", 1335, 233, false, None;
      "rule 2: inTitle(D2,$1)", 4868, 2107, true, Some 1227;
      "rule 2: $1 < $2", 1491, 513, false, None;
    ]
  in
  let result = run_exn cat flock in
  let got =
    List.map
      (fun (d : Dynamic.decision) ->
        d.after, d.rows, d.assignments, d.filtered, d.survivors)
      result.trace
  in
  Alcotest.(
    check
      (list (pair string (pair int (pair int (pair bool (option int))))))
      "Fig. 4 union trace"
      (List.map (fun (a, r, n, f, s) -> a, (r, (n, (f, s)))) expected)
      (List.map (fun (a, r, n, f, s) -> a, (r, (n, (f, s)))) got));
  check_int "answers" 182 (R.cardinal result.answers)

let test_union_sum_rejected () =
  let cat = Catalog.create () in
  Catalog.add cat "p" (R.of_values [ "X"; "W" ] V.[ [ Int 1; Int 2 ] ]);
  let rule text =
    match Qf_datalog.Parser.parse_rule text with
    | Ok r -> r
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let flock =
    Flock.make_exn
      [ rule "answer(X,W) :- p(X,W) AND p(X,$a)";
        rule "answer(X,W) :- p(W,X) AND p(X,$a)" ]
      (Filter.sum_at_least "W" 1.)
  in
  match Dynamic.run cat flock with
  | Ok _ -> Alcotest.fail "SUM unions must be rejected"
  | Error e -> check_bool "says COUNT only" true (Test_util.contains ~sub:"COUNT" e)

let test_min_filter_rejected () =
  let cat = Catalog.create () in
  Catalog.add cat "p" (R.of_values [ "X"; "W" ] V.[ [ Int 1; Int 2 ] ]);
  let flock =
    Flock.make_exn
      [
        (match Qf_datalog.Parser.parse_rule "answer(X,W) :- p(X,W) AND p(X,$a)" with
        | Ok r -> r
        | Error e -> Alcotest.failf "parse: %s" e);
      ]
      { Filter.agg = Min "W"; threshold = 1. }
  in
  match Dynamic.run cat flock with
  | Ok _ -> Alcotest.fail "non-monotone filters must be rejected"
  | Error e -> check_bool "says monotone" true (Test_util.contains ~sub:"monotone" e)

let test_weighted_sum_dynamic () =
  (* Monotone SUM filters work dynamically too (Fig. 10 + Sec. 4.4). *)
  let cat =
    Qf_workload.Market.catalog_with_importance
      { Qf_workload.Market.default with n_baskets = 300; n_items = 60; seed = 5 }
  in
  let flock =
    Parse.flock_exn
      {|QUERY:
answer(B,W) :-
    baskets(B,$1) AND
    baskets(B,$2) AND
    importance(B,W) AND
    $1 < $2
FILTER:
SUM(answer.W) >= 60|}
  in
  let result = run_exn cat flock in
  Alcotest.check Test_util.relation "dynamic SUM = direct"
    (Direct.run cat flock) result.answers

(* A head constant, counted and summed: the dynamic walk groups its
   answer rows like any plan step, constant code included. *)
let test_head_constant () =
  let cat =
    Qf_workload.Market.catalog
      { Qf_workload.Market.default with n_baskets = 300; n_items = 40; seed = 3 }
  in
  List.iter
    (fun filter ->
      let flock =
        Parse.flock_exn
          ("QUERY:\nanswer(B,5) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2\n\
            FILTER:\n" ^ filter)
      in
      let expected = Direct.run cat flock in
      check_bool (filter ^ ": some pair passes") true (R.cardinal expected > 0);
      List.iter
        (fun config ->
          Alcotest.check Test_util.relation
            (filter ^ ": dynamic = direct")
            expected (run_exn ~config cat flock).answers)
        [
          Dynamic.default_config;
          { Dynamic.ratio_factor = 1e9; improvement_factor = 1e9 };
        ])
    [ "COUNT(answer(*)) >= 8"; "SUM(answer.c1) >= 40" ]

(* Two branches can derive the same answer row, here (1, 5) for $a = 7
   through a head constant in one branch and a variable in the other: the
   union counts it once, so $a = 7 has 3 answers, not 4. *)
let test_union_shared_rows () =
  let cat = Catalog.create () in
  Catalog.add cat "p"
    (R.of_values [ "X"; "A" ] V.[ [ Int 1; Int 7 ]; [ Int 2; Int 7 ]; [ Int 3; Int 8 ] ]);
  Catalog.add cat "q"
    (R.of_values [ "X"; "Y"; "A" ]
       V.[ [ Int 1; Int 5; Int 7 ]; [ Int 2; Int 6; Int 7 ]; [ Int 3; Int 5; Int 8 ] ]);
  List.iter
    (fun (threshold, expected) ->
      let flock =
        Parse.flock_exn
          (Printf.sprintf
             "QUERY:\nanswer(X,5) :- p(X,$a)\nanswer(X,Y) :- q(X,Y,$a)\n\
              FILTER:\nCOUNT(answer(*)) >= %d" threshold)
      in
      let want = R.of_values [ "$a" ] (List.map (fun a -> [ V.Int a ]) expected) in
      Alcotest.check Test_util.relation "naive" want (Naive.run cat flock);
      List.iter
        (fun config ->
          Alcotest.check Test_util.relation
            (Printf.sprintf "COUNT >= %d: dynamic" threshold)
            want (run_exn ~config cat flock).answers)
        [
          Dynamic.default_config;
          { Dynamic.ratio_factor = 1e9; improvement_factor = 1e9 };
        ])
    [ 3, [ 7 ]; 4, [] ]

let suite =
  [
    Alcotest.test_case "dynamic = direct (threshold sweep)" `Quick
      test_equivalence_sweep;
    Alcotest.test_case "dynamic = direct (config sweep)" `Quick
      test_equivalence_across_configs;
    Alcotest.test_case "trace covers every literal" `Quick
      test_trace_covers_every_literal;
    Alcotest.test_case "configs control filtering" `Quick
      test_aggressive_config_filters;
    Alcotest.test_case "survivors recorded" `Quick test_survivors_recorded;
    Alcotest.test_case "unions supported" `Quick test_union_supported;
    Alcotest.test_case "union-only assignments survive" `Quick
      test_union_crosses_branches;
    Alcotest.test_case "Fig. 4 union dynamic" `Quick test_union_webwords_dynamic;
    Alcotest.test_case "Fig. 4 union trace pinned" `Quick
      test_union_webwords_trace;
    Alcotest.test_case "SUM unions rejected" `Quick test_union_sum_rejected;
    Alcotest.test_case "MIN filter rejected" `Quick test_min_filter_rejected;
    Alcotest.test_case "dynamic SUM filter" `Quick test_weighted_sum_dynamic;
    Alcotest.test_case "head constant: COUNT and SUM" `Quick
      test_head_constant;
    Alcotest.test_case "union branches share answer rows" `Quick
      test_union_shared_rows;
  ]
