(* Intermediate predicates (VIEWS, the Sec. 2.3 extension) and the Sec. 1.1
   association measures. *)
open Qf_core
module R = Qf_relational.Relation
module V = Qf_relational.Value
module Catalog = Qf_relational.Catalog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rule text =
  match Qf_datalog.Parser.parse_rule text with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse %S: %s" text e

let base_catalog () =
  let cat = Catalog.create () in
  Catalog.add cat "edge"
    (R.of_values [ "X"; "Y" ]
       V.[ [ Int 1; Int 2 ]; [ Int 2; Int 3 ]; [ Int 3; Int 1 ] ]);
  cat

let test_materialize_simple () =
  let cat = base_catalog () in
  match Views.materialize cat [ rule "two_hop(X,Z) :- edge(X,Y) AND edge(Y,Z)" ] with
  | Error e -> Alcotest.failf "materialize: %s" e
  | Ok cat' ->
    let two_hop = Catalog.find cat' "two_hop" in
    check_int "three 2-hops on the 3-cycle" 3 (R.cardinal two_hop);
    check_bool "1->3" true (R.mem two_hop (Qf_relational.Tuple.of_array [| V.Int 1; V.Int 3 |]));
    check_bool "input catalog untouched" false (Catalog.mem cat "two_hop")

(* A body atom whose arity differs from its relation's is a typed error
   from [materialize], not an [Eval.Error] raised while evaluating. *)
let test_materialize_arity_mismatch () =
  let cat = base_catalog () in
  List.iter
    (fun (rules, expected) ->
      match Views.materialize cat (List.map rule rules) with
      | Ok _ -> Alcotest.fail "materialized a body of the wrong arity"
      | Error e -> Alcotest.(check string) "message" expected e)
    [
      ( [ "loop(X) :- edge(X,X,X)" ],
        "loop: predicate edge has arity 2 but is used with 3" );
      ( [ "hop(X,Y) :- edge(X,Y)"; "back(X) :- hop(X)" ],
        "back: predicate hop has arity 2 but is used with 1" );
    ]

let test_view_union_rules () =
  let cat = base_catalog () in
  match
    Views.materialize cat
      [
        rule "reach2(X,Y) :- edge(X,Y)";
        rule "reach2(X,Z) :- edge(X,Y) AND edge(Y,Z)";
      ]
  with
  | Error e -> Alcotest.failf "materialize: %s" e
  | Ok cat' -> check_int "union of 1- and 2-hops" 6 (R.cardinal (Catalog.find cat' "reach2"))

let test_view_uses_earlier_view () =
  let cat = base_catalog () in
  match
    Views.materialize cat
      [
        rule "two_hop(X,Z) :- edge(X,Y) AND edge(Y,Z)";
        rule "three_hop(X,W) :- two_hop(X,Z) AND edge(Z,W)";
      ]
  with
  | Error e -> Alcotest.failf "materialize: %s" e
  | Ok cat' ->
    check_bool "3-hop returns home on the cycle" true
      (R.mem (Catalog.find cat' "three_hop") (Qf_relational.Tuple.of_array [| V.Int 1; V.Int 1 |]))

let test_view_rejections () =
  let cat = base_catalog () in
  let is_error views = Result.is_error (Views.materialize cat views) in
  check_bool "shadowing rejected" true (is_error [ rule "edge(X,Y) :- edge(Y,X)" ]);
  check_bool "unknown predicate rejected" true (is_error [ rule "v(X) :- nosuch(X)" ]);
  check_bool "parameters rejected" true (is_error [ rule "v(X) :- edge(X,$a)" ]);
  check_bool "unsafe view rejected" true (is_error [ rule "v(X,Z) :- edge(X,Y)" ]);
  check_bool "arity mismatch rejected" true
    (is_error [ rule "a(X) :- edge(X,Y)"; rule "a(X,Y) :- edge(X,Y)" ]);
  check_bool "negation through recursion rejected" true
    (is_error
       [ rule "odd(X,Y) :- edge(X,Y) AND NOT odd(Y,X)" ])

(* Recursion is now supported (stratified semi-naive fixpoint): transitive
   closure of the 3-cycle reaches everything. *)
let test_recursive_view () =
  let cat = base_catalog () in
  match
    Views.materialize cat
      [
        rule "reach(X,Y) :- edge(X,Y)";
        rule "reach(X,Z) :- reach(X,Y) AND edge(Y,Z)";
      ]
  with
  | Error e -> Alcotest.failf "recursive view: %s" e
  | Ok cat' ->
    let reach = Catalog.find cat' "reach" in
    check_int "full closure of the 3-cycle" 9 (R.cardinal reach);
    check_bool "1 reaches itself" true (R.mem reach (Qf_relational.Tuple.of_array [| V.Int 1; V.Int 1 |]))

let test_mutually_recursive_views () =
  (* Even/odd path length from node 1 on the 3-cycle: mutually recursive
     predicates in one stratum. *)
  let cat = base_catalog () in
  match
    Views.materialize cat
      [
        rule "odd_step(X,Y) :- edge(X,Y)";
        rule "odd_step(X,Z) :- even_step(X,Y) AND edge(Y,Z)";
        rule "even_step(X,Z) :- odd_step(X,Y) AND edge(Y,Z)";
      ]
  with
  | Error e -> Alcotest.failf "mutual recursion: %s" e
  | Ok cat' ->
    (* On a 3-cycle every pair is reachable by both parities (cycle length
       3 is odd), so both relations are the full 3x3. *)
    check_int "odd closure" 9 (R.cardinal (Catalog.find cat' "odd_step"));
    check_int "even closure" 9 (R.cardinal (Catalog.find cat' "even_step"))

let test_stratified_negation_view () =
  (* unreachable-from-1 via a lower stratum: nodes(X) minus reach(1,X). *)
  let cat = Catalog.create () in
  Catalog.add cat "edge"
    (R.of_values [ "X"; "Y" ] V.[ [ Int 1; Int 2 ]; [ Int 2; Int 1 ]; [ Int 3; Int 4 ] ]);
  Catalog.add cat "node"
    (R.of_values [ "N" ] V.[ [ Int 1 ]; [ Int 2 ]; [ Int 3 ]; [ Int 4 ] ]);
  match
    Views.materialize cat
      [
        rule "reach(X,Y) :- edge(X,Y)";
        rule "reach(X,Z) :- reach(X,Y) AND edge(Y,Z)";
        rule "unreached(N) :- node(N) AND NOT reach(1,N)";
      ]
  with
  | Error e -> Alcotest.failf "stratified negation: %s" e
  | Ok cat' ->
    let unreached = Catalog.find cat' "unreached" in
    (* 1 reaches 2 and 1; nodes 3 and 4 are unreached. *)
    check_int "two unreached" 2 (R.cardinal unreached);
    check_bool "3 unreached" true (R.mem unreached (Qf_relational.Tuple.of_array [| V.Int 3 |]));
    check_bool "4 unreached" true (R.mem unreached (Qf_relational.Tuple.of_array [| V.Int 4 |]))

(* A recursive view feeding a flock: nodes with at least k descendants. *)
let test_recursive_view_feeds_flock () =
  let graph_cat =
    Qf_workload.Graph.generate
      { Qf_workload.Graph.default with n_nodes = 60; max_out_degree = 8; seed = 41 }
  in
  match
    Views.materialize graph_cat
      [
        rule "reach(X,Y) :- arc(X,Y)";
        rule "reach(X,Z) :- reach(X,Y) AND arc(Y,Z)";
      ]
  with
  | Error e -> Alcotest.failf "reach view: %s" e
  | Ok cat ->
    let flock =
      Parse.flock_exn
        "QUERY:\nanswer(X) :- reach($n,X)\nFILTER:\nCOUNT(answer.X) >= 30"
    in
    let direct = Direct.run cat flock in
    let plan = Optimizer.optimize cat flock in
    Alcotest.check Test_util.relation "plan over recursive view = direct"
      direct (Plan_exec.run cat plan);
    (* Sanity: the answer matches a hand count over the view. *)
    let reach = Catalog.find cat "reach" in
    let by_source = Qf_relational.Aggregate.group_by reach ~keys:[ "X" ]
        ~func:Qf_relational.Aggregate.Count in
    let expected =
      List.length
        (List.filter (fun (_, v) -> match V.to_float v with Some x -> x >= 30. | None -> false) by_source)
    in
    check_int "matches hand count" expected (R.cardinal direct)

let test_strata () =
  let rules =
    [
      rule "reach(X,Y) :- edge(X,Y)";
      rule "reach(X,Z) :- reach(X,Y) AND edge(Y,Z)";
      rule "odd_hop(X,Y) :- edge(X,Y)";
      rule "odd_hop(X,Z) :- even_hop(X,Y) AND edge(Y,Z)";
      rule "even_hop(X,Z) :- odd_hop(X,Y) AND edge(Y,Z)";
      rule "far(X) :- reach(X,Y) AND NOT edge(X,Y)";
    ]
  in
  match Qf_datalog.Fixpoint.strata rules with
  | Error e -> Alcotest.failf "strata: %s" e
  | Ok strata ->
    check_int "three strata" 3 (List.length strata);
    (* Mutual recursion grouped in one stratum. *)
    check_bool "even/odd together" true
      (List.exists
         (fun s -> List.sort compare s = [ "even_hop"; "odd_hop" ])
         strata);
    (* far depends on reach, so reach's stratum comes first. *)
    let index p =
      let rec go i = function
        | [] -> -1
        | s :: rest -> if List.mem p s then i else go (i + 1) rest
      in
      go 0 strata
    in
    check_bool "reach before far" true (index "reach" < index "far")

let test_program_parsing () =
  let p =
    Parse.program_exn
      {|VIEWS:
explained(P,S) :- diagnoses(P,D) AND causes(D,S)

QUERY:
answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND NOT explained(P,$s)

FILTER:
COUNT(answer.P) >= 2|}
  in
  check_int "one view rule" 1 (List.length p.Parse.views);
  Alcotest.(check (list string)) "params" [ "m"; "s" ] (Flock.params p.Parse.flock)

let test_program_without_views () =
  let p =
    Parse.program_exn
      "QUERY:\nanswer(B) :- b(B,$1)\nFILTER:\nCOUNT(answer.B) >= 2"
  in
  check_int "no views" 0 (List.length p.Parse.views);
  check_bool "flock rejects programs with views" true
    (Result.is_error
       (Parse.flock
          "VIEWS:\nv(X) :- b(X,Y)\nQUERY:\nanswer(B) :- b(B,$1)\nFILTER:\nCOUNT(answer.B) >= 2"))

let test_program_view_validation () =
  check_bool "view with params rejected at parse" true
    (Result.is_error
       (Parse.program
          "VIEWS:\nv(X) :- b(X,$a)\nQUERY:\nanswer(B) :- b(B,$1)\nFILTER:\nCOUNT(answer.B) >= 2"))

(* End-to-end: multi-disease patients, the scenario the paper says needs
   intermediate predicates. *)
let test_multi_disease_end_to_end () =
  let config =
    {
      Qf_workload.Medical.default with
      n_patients = 800;
      diseases_per_patient = 3;
      seed = 17;
    }
  in
  let { Qf_workload.Medical.catalog; _ } = Qf_workload.Medical.generate config in
  let { Parse.views; flock } =
    Parse.program_exn
      {|VIEWS:
explained(P,S) :- diagnoses(P,D) AND causes(D,S)
QUERY:
answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND NOT explained(P,$s)
FILTER:
COUNT(answer.P) >= 10|}
  in
  match Views.materialize catalog views with
  | Error e -> Alcotest.failf "materialize: %s" e
  | Ok cat ->
    let direct = Direct.run cat flock in
    let plan = Optimizer.optimize cat flock in
    Alcotest.check Test_util.relation "plan = direct over views" direct
      (Plan_exec.run cat plan);
    (match Dynamic.run cat flock with
    | Ok r ->
      Alcotest.check Test_util.relation "dynamic = direct over views" direct
        r.answers
    | Error e -> Alcotest.failf "dynamic: %s" e);
    (* The single-disease flock (with diagnoses inline) under-reports for
       multi-disease patients: a symptom explained by the patient's other
       disease still qualifies there.  The view-based flock must therefore
       find a subset. *)
    let naive_single =
      Parse.flock_exn
        {|QUERY:
answer(P) :-
    exhibits(P,$s) AND
    treatments(P,$m) AND
    diagnoses(P,D) AND
    NOT causes(D,$s)
FILTER:
COUNT(answer.P) >= 10|}
    in
    let single = Direct.run cat naive_single in
    R.iter
      (fun tup ->
        check_bool "view-based results also qualify per-disease" true
          (R.mem single tup))
      direct

(* {1 Measures (Sec. 1.1)} *)

let measure_catalog () =
  let cat = Catalog.create () in
  Catalog.add cat "baskets"
    (R.of_values [ "BID"; "Item" ]
       V.[
         [ Int 1; Int 10 ]; [ Int 1; Int 20 ];
         [ Int 2; Int 10 ]; [ Int 2; Int 20 ];
         [ Int 3; Int 10 ]; [ Int 3; Int 20 ];
         [ Int 4; Int 10 ];
         [ Int 5; Int 30 ];
       ]);
  cat

let test_measures_values () =
  let rules =
    Measures.pair_rules (measure_catalog ()) ~pred:"baskets" ~support:3
      ~min_confidence:0.0
  in
  check_int "two directed rules from one pair" 2 (List.length rules);
  let r =
    List.find
      (fun (r : Measures.rule) -> V.equal r.antecedent (V.Int 10))
      rules
  in
  check_int "support {10,20} = 3" 3 r.pair_support;
  (* conf(10 -> 20) = 3/4; P(20) = 3/5; interest = (3/4)/(3/5) = 1.25 *)
  Alcotest.(check (float 1e-9)) "confidence" 0.75 r.confidence;
  Alcotest.(check (float 1e-9)) "interest" 1.25 r.interest

let test_measures_confidence_floor () =
  let rules =
    Measures.pair_rules (measure_catalog ()) ~pred:"baskets" ~support:3
      ~min_confidence:0.9
  in
  (* conf(20 -> 10) = 3/3 = 1.0 passes; conf(10 -> 20) = 0.75 fails. *)
  check_int "floor filters directions" 1 (List.length rules);
  check_bool "20 -> 10 kept" true
    (V.equal (List.hd rules).Measures.antecedent (V.Int 20))

let test_measures_agree_with_classic () =
  let cat =
    Qf_workload.Market.catalog
      { Qf_workload.Market.default with n_baskets = 400; n_items = 60; seed = 3 }
  in
  let ours =
    Measures.pair_rules cat ~pred:"baskets" ~support:15 ~min_confidence:0.3
  in
  let db = Qf_apriori.Apriori.db_of_relation (Catalog.find cat "baskets") in
  let classic =
    Qf_apriori.Apriori.rules db ~support:15 ~max_size:2 ~min_confidence:0.3
  in
  check_int "same rule count as the classic miner" (List.length classic)
    (List.length ours);
  List.iter
    (fun (c : Qf_apriori.Apriori.rule) ->
      let a = V.Int (List.hd (Qf_apriori.Itemset.to_list c.antecedent)) in
      let b = V.Int (List.hd (Qf_apriori.Itemset.to_list c.consequent)) in
      let ours_rule =
        List.find_opt
          (fun (r : Measures.rule) ->
            V.equal r.antecedent a && V.equal r.consequent b)
          ours
      in
      match ours_rule with
      | None -> Alcotest.failf "classic rule missing from flock measures"
      | Some r ->
        check_int "same support" c.rule_support r.pair_support;
        check_bool "same confidence" true
          (abs_float (c.confidence -. r.confidence) < 1e-9);
        check_bool "same interest" true
          (abs_float (c.interest -. r.interest) < 1e-9))
    classic

let suite =
  [
    Alcotest.test_case "materialize a view" `Quick test_materialize_simple;
    Alcotest.test_case "view union rules" `Quick test_view_union_rules;
    Alcotest.test_case "view over earlier view" `Quick test_view_uses_earlier_view;
    Alcotest.test_case "view rejections" `Quick test_view_rejections;
    Alcotest.test_case "recursive view (transitive closure)" `Quick
      test_recursive_view;
    Alcotest.test_case "mutually recursive views" `Quick
      test_mutually_recursive_views;
    Alcotest.test_case "stratified negation over recursion" `Quick
      test_stratified_negation_view;
    Alcotest.test_case "recursive view feeds a flock" `Quick
      test_recursive_view_feeds_flock;
    Alcotest.test_case "stratification" `Quick test_strata;
    Alcotest.test_case "program parsing with VIEWS" `Quick test_program_parsing;
    Alcotest.test_case "program without views" `Quick test_program_without_views;
    Alcotest.test_case "program view validation" `Quick
      test_program_view_validation;
    Alcotest.test_case "multi-disease end to end" `Quick
      test_multi_disease_end_to_end;
    Alcotest.test_case "measures: support/confidence/interest" `Quick
      test_measures_values;
    Alcotest.test_case "measures: confidence floor" `Quick
      test_measures_confidence_floor;
    Alcotest.test_case "measures agree with the classic miner" `Quick
      test_measures_agree_with_classic;
    Alcotest.test_case "body arity mismatch is a typed error" `Quick
      test_materialize_arity_mismatch;
  ]
