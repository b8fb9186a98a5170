(* The Datalog evaluator: binding-passing joins, negation, arithmetic,
   grouping by parameters, unions. *)
open Qf_datalog
module R = Qf_relational.Relation
module V = Qf_relational.Value
module Catalog = Qf_relational.Catalog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rule text =
  match Parser.parse_rule text with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse %S: %s" text e

let catalog () =
  let cat = Catalog.create () in
  Catalog.add cat "edge"
    (R.of_values [ "X"; "Y" ]
       V.[
         [ Int 1; Int 2 ]; [ Int 2; Int 3 ]; [ Int 3; Int 4 ];
         [ Int 1; Int 3 ]; [ Int 4; Int 4 ];
       ]);
  Catalog.add cat "color"
    (R.of_values [ "N"; "C" ]
       V.[ [ Int 1; Str "red" ]; [ Int 2; Str "blue" ]; [ Int 3; Str "red" ] ]);
  cat

let tab cat text = Eval.tabulate cat (rule text)

let test_single_subgoal () =
  let r = tab (catalog ()) "answer(X,Y) :- edge(X,Y)" in
  check_int "all edges" 5 (R.cardinal r)

let test_join_two_subgoals () =
  (* Two-step paths. *)
  let r = tab (catalog ()) "answer(X,Z) :- edge(X,Y) AND edge(Y,Z)" in
  (* 1-2-3, 2-3-4, 1-3-4, 3-4-4, 4-4-4 => distinct (X,Z): (1,3)(2,4)(1,4)(3,4)(4,4) *)
  check_int "two-step paths" 5 (R.cardinal r)

let test_repeated_variable_in_atom () =
  let r = tab (catalog ()) "answer(X) :- edge(X,X)" in
  check_int "self-loops" 1 (R.cardinal r);
  check_bool "node 4" true (R.mem r (Qf_relational.Tuple.of_array [| V.Int 4 |]))

let test_constant_in_atom () =
  let r = tab (catalog ()) "answer(X) :- edge(X,3)" in
  check_int "edges into 3" 2 (R.cardinal r)

let test_negation () =
  (* Nodes with an outgoing edge whose target has no outgoing edge... with
     colors: colored nodes not blue-colored. *)
  let r =
    tab (catalog ()) "answer(N) :- color(N,C) AND NOT color(N,blue)"
  in
  (* negation on a different binding: NOT color(N,"blue") removes node 2 *)
  check_int "non-blue colored nodes" 2 (R.cardinal r)

let test_negation_joined () =
  let r = tab (catalog ()) "answer(X,Y) :- edge(X,Y) AND NOT edge(Y,X)" in
  check_int "asymmetric edges" 4 (R.cardinal r);
  check_bool "4->4 excluded (symmetric)" false (R.mem r (Qf_relational.Tuple.of_array [| V.Int 4; V.Int 4 |]))

let test_arithmetic () =
  let r = tab (catalog ()) "answer(X,Y) :- edge(X,Y) AND X < Y" in
  check_int "forward edges" 4 (R.cardinal r);
  let r = tab (catalog ()) "answer(X,Y) :- edge(X,Y) AND Y <= 3" in
  check_int "small targets" 3 (R.cardinal r)

let test_cross_product () =
  let r = tab (catalog ()) "answer(N,C) :- color(N,C) AND edge(4,4)" in
  check_int "guarded cross" 3 (R.cardinal r)

let test_head_constant () =
  let r = tab (catalog ()) "answer(X, 99) :- edge(X,X)" in
  check_bool "constant column materialized" true
    (R.mem r (Qf_relational.Tuple.of_array [| V.Int 4; V.Int 99 |]))

let test_head_constant_with_params () =
  (* Constant head columns must be re-inserted in position even when the
     tabulation carries parameter columns. *)
  let r = tab (catalog ()) "answer(X, 42, Y) :- edge(X,Y) AND edge(X,$t)" in
  check_bool "constant column in the middle" true
    (R.fold
       (fun tup ok -> ok && Qf_relational.Tuple.get tup 2 = V.Int 42)
       r true);
  check_bool "schema" true
    (Qf_relational.Schema.columns (R.schema r) = [ "$t"; "X"; "c1"; "Y" ])

(* The FILTER over a constant head argument: COUNT counts distinct
   answers, SUM adds the constant once per answer.  [answer(Y, 5)] binds
   only parameters and head variables, so every row counts as it comes;
   [answer(5)] leaves [Y] out, so its rows are deduplicated first. *)
let test_filter_head_constant () =
  let sources out =
    List.sort compare
      (R.fold (fun tup acc -> Qf_relational.Tuple.to_list tup :: acc) out [])
  in
  let filter text func threshold =
    let out, rows, groups, _ =
      Eval.filter_query (catalog ()) [ rule text ] ~keys:[ "$s" ] ~func
        ~threshold
    in
    sources out, rows, groups
  in
  let one = [ [ V.Int 1 ] ] in
  let all = List.map (fun i -> [ V.Int i ]) [ 1; 2; 3; 4 ] in
  let check name (want, want_rows) (got, rows, groups) =
    check_bool (name ^ ": survivors") true (got = want);
    check_int (name ^ ": tabulated rows") want_rows rows;
    check_int (name ^ ": groups") 4 groups
  in
  let open Qf_relational.Aggregate in
  check "COUNT, answer(Y,5)" (one, 5)
    (filter "answer(Y, 5) :- edge($s, Y)" Count 2.);
  check "SUM, answer(Y,5) >= 10" (one, 5)
    (filter "answer(Y, 5) :- edge($s, Y)" (Sum "c1") 10.);
  check "SUM, answer(Y,5) >= 5" (all, 5)
    (filter "answer(Y, 5) :- edge($s, Y)" (Sum "c1") 5.);
  check "COUNT, answer(5)" ([], 4)
    (filter "answer(5) :- edge($s, Y)" Count 2.);
  check "SUM, answer(5)" (all, 4)
    (filter "answer(5) :- edge($s, Y)" (Sum "c0") 5.)

let test_params_grouping () =
  let r = tab (catalog ()) "answer(X) :- edge(X,$t)" in
  (* Schema: $t, X; one row per (target, source) pair. *)
  check_int "param tabulation" 5 (R.cardinal r);
  check_bool "schema has $t first" true
    (Qf_relational.Schema.columns (R.schema r) = [ "$t"; "X" ])

let test_answers_with_bindings () =
  let r =
    Eval.answers (catalog ())
      ~bindings:[ "$t", V.Int 3 ]
      (rule "answer(X) :- edge(X,$t)")
  in
  check_int "sources of 3" 2 (R.cardinal r)

let test_answers_unbound_param_rejected () =
  Alcotest.check_raises "unbound param"
    (Eval.Error "answers: parameter $t left unbound") (fun () ->
      ignore (Eval.answers (catalog ()) ~bindings:[] (rule "answer(X) :- edge(X,$t)")))

let test_unsafe_rejected () =
  (try
     ignore (tab (catalog ()) "answer(Z) :- edge(X,Y)");
     Alcotest.fail "expected Eval.Error"
   with Eval.Error _ -> ());
  try
    ignore (tab (catalog ()) "answer(X) :- edge(X,Y) AND NOT color(Q,red)");
    Alcotest.fail "expected Eval.Error"
  with Eval.Error _ -> ()

let test_unknown_predicate () =
  try
    ignore (tab (catalog ()) "answer(X) :- nosuch(X,Y)");
    Alcotest.fail "expected Eval.Error"
  with Eval.Error msg ->
    check_bool "mentions predicate" true (Test_util.contains ~sub:"nosuch" msg)

let test_arity_mismatch () =
  try
    ignore (tab (catalog ()) "answer(X) :- edge(X,Y,Z)");
    Alcotest.fail "expected Eval.Error"
  with Eval.Error msg ->
    check_bool "mentions arity" true (Test_util.contains ~sub:"arity" msg)

let test_union () =
  let q =
    match
      Parser.parse_query
        "answer(X) :- edge(X,$t)\nanswer(X) :- edge($t,X)"
    with
    | Ok q -> q
    | Error e -> Alcotest.failf "parse union: %s" e
  in
  let _, rows, _, _ =
    Eval.filter_query (catalog ()) q ~keys:[ "$t" ]
      ~func:Qf_relational.Aggregate.Count ~threshold:1.
  in
  (* ($t,X) pairs reachable as (target,source) or (source,target). *)
  check_int "union dedups" 9 rows

let test_duplicate_head_vars () =
  let r = tab (catalog ()) "answer(X,X) :- edge(X,X)" in
  check_bool "duplicated head column" true (R.mem r (Qf_relational.Tuple.of_array [| V.Int 4; V.Int 4 |]));
  check_bool "columns disambiguated" true
    (Qf_relational.Schema.columns (R.schema r) = [ "X"; "X_2" ]);
  (* The suffix must not collide with a name already in the head. *)
  let r =
    tab (catalog ()) "answer(X,X,X_2) :- edge(X,Y) AND edge(X_2,Z) AND Y < Z"
  in
  check_bool "suffix skips a head name" true
    (Qf_relational.Schema.columns (R.schema r) = [ "X"; "X_3"; "X_2" ]);
  check_bool "tuple in position" true
    (R.mem r (Qf_relational.Tuple.of_array V.[| Int 1; Int 1; Int 3 |]))

(* {1 Filters fused into binding extension} *)

let expect_rows text expected =
  let got = tab (catalog ()) text in
  let want =
    R.of_values (Qf_relational.Schema.columns (R.schema got)) expected
  in
  Alcotest.(check (list string)) text (Test_util.rows want) (Test_util.rows got)

let test_fused_repeated_key_dedupes () =
  (* Two keys over a two-slot environment, but one slot twice: the
     projection is not a permutation and must dedupe. *)
  expect_rows "answer(X,X) :- edge(X,Y)"
    V.[ [ Int 1; Int 1 ]; [ Int 2; Int 2 ]; [ Int 3; Int 3 ]; [ Int 4; Int 4 ] ]

let test_fused_permuted_keys () =
  expect_rows "answer(Y,X) :- edge(X,Y)"
    V.[
      [ Int 2; Int 1 ]; [ Int 3; Int 2 ]; [ Int 4; Int 3 ]; [ Int 3; Int 1 ];
      [ Int 4; Int 4 ];
    ];
  (* Parameter and head slots together, in another order than bound. *)
  expect_rows "answer(Y) :- edge($s,Y)"
    V.[
      [ Int 1; Int 2 ]; [ Int 2; Int 3 ]; [ Int 3; Int 4 ]; [ Int 1; Int 3 ];
      [ Int 4; Int 4 ];
    ]

let test_fused_comparisons () =
  (* X is bound by the first subgoal, Z by the one the filter rides on. *)
  expect_rows "answer(X,Z) :- edge(X,Y) AND edge(Y,Z) AND X < Z"
    V.[
      [ Int 1; Int 3 ]; [ Int 2; Int 4 ]; [ Int 1; Int 4 ]; [ Int 3; Int 4 ];
    ];
  expect_rows "answer(X,Y) :- edge(X,Y) AND Y <= 3"
    V.[ [ Int 1; Int 2 ]; [ Int 2; Int 3 ]; [ Int 1; Int 3 ] ];
  expect_rows "answer(N) :- color(N,C) AND C = red" V.[ [ Int 1 ]; [ Int 3 ] ]

let test_fused_after_repeated_fresh () =
  expect_rows "answer(X) :- edge(X,X) AND X > 2" V.[ [ Int 4 ] ];
  expect_rows "answer(X) :- edge(X,X) AND X > 4" []

let test_constants_only_comparison () =
  (* Ready before any positive subgoal: a step of its own. *)
  expect_rows "answer(X) :- edge(X,Y) AND 1 < 2"
    V.[ [ Int 1 ]; [ Int 2 ]; [ Int 3 ]; [ Int 4 ] ];
  expect_rows "answer(X) :- edge(X,Y) AND 2 < 1" []

let test_fused_negation () =
  expect_rows "answer(X,Y) :- edge(X,Y) AND NOT edge(Y,X)"
    V.[
      [ Int 1; Int 2 ]; [ Int 2; Int 3 ]; [ Int 3; Int 4 ]; [ Int 1; Int 3 ];
    ];
  (* A constant and a fresh binding in the negated atom, then a
     comparison on the same candidate. *)
  expect_rows "answer(N) :- color(N,C) AND NOT color(N,blue) AND N > 1"
    V.[ [ Int 3 ] ]

let test_fused_filters_follow_sip () =
  (* The five two-step paths reach Z in {3, 4, 4, 4, 4}; the reducer keeps
     only Z = 3.  X < Z is the walk's order bound: from X = 4 the walk
     over Y = 4's chain, ordered by Z descending, stops before Z = 4, so
     the path 4-4-4 is never a candidate.  The reducer sees and counts
     the other three Z = 4 candidates. *)
  let module Obs = Qf_obs.Obs in
  let sip =
    [ "Z", Qf_relational.Sip.of_column (R.of_values [ "Z" ] V.[ [ Int 3 ] ]) "Z" ]
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled was)
  @@ fun () ->
  let cat = catalog () in
  let envs =
    Eval.Envs.extend_pos cat (Eval.Envs.start ())
      { Ast.pred = "edge"; args = [ Ast.Var "X"; Ast.Var "Y" ] }
  in
  let envs =
    Eval.Envs.extend_pos ~sip
      ~filters:[ Ast.Cmp (Ast.Var "X", Ast.Lt, Ast.Var "Z") ]
      cat envs
      { Ast.pred = "edge"; args = [ Ast.Var "Y"; Ast.Var "Z" ] }
  in
  check_int "rows left" 1 (Eval.Envs.count envs);
  check_int "sip.rows_pruned" 3
    (Option.value ~default:0
       (List.assoc_opt "sip.rows_pruned" (Obs.report ()).Obs.counters))

let test_order_body_starts_small () =
  let cat = catalog () in
  let ordered =
    Eval.order_body cat
      (rule "answer(N) :- edge(X,Y) AND color(N,C) AND edge(N,X)")
  in
  match List.hd ordered with
  | Ast.Pos a ->
    Alcotest.(check string) "smallest relation first" "color" a.pred
  | _ -> Alcotest.fail "expected positive first"

let test_envs_incremental_api () =
  let cat = catalog () in
  let envs = Eval.Envs.start () in
  check_int "start: one empty env" 1 (Eval.Envs.count envs);
  let envs =
    Eval.Envs.extend_pos cat envs
      { Ast.pred = "edge"; args = [ Ast.Var "X"; Ast.Var "Y" ] }
  in
  check_int "extended" 5 (Eval.Envs.count envs);
  let envs = Eval.Envs.filter_cmp envs (Ast.Var "X") Ast.Lt (Ast.Var "Y") in
  check_int "filtered" 4 (Eval.Envs.count envs);
  let keep = R.of_values [ "X" ] V.[ [ Int 1 ] ] in
  let envs = Eval.Envs.semijoin envs ~keys:[ "X" ] ~keep in
  check_int "semijoined" 2 (Eval.Envs.count envs);
  let head = rule "answer(Y) :- edge(X,Y) AND X < Y" in
  let groups =
    Eval.groups [ head ] ~keys:[ "Y" ] ~func:Qf_relational.Aggregate.Count
  in
  Eval.add_envs groups head envs;
  let kept, rows, groups = Eval.filter_groups groups ~threshold:1. in
  check_int "distinct Y groups" 2 groups;
  check_int "answer rows fed" 2 rows;
  check_int "every group passes" 2 (R.cardinal kept)

let suite =
  [
    Alcotest.test_case "single subgoal" `Quick test_single_subgoal;
    Alcotest.test_case "join two subgoals" `Quick test_join_two_subgoals;
    Alcotest.test_case "repeated variable in atom" `Quick
      test_repeated_variable_in_atom;
    Alcotest.test_case "constant in atom" `Quick test_constant_in_atom;
    Alcotest.test_case "negation" `Quick test_negation;
    Alcotest.test_case "negation after join" `Quick test_negation_joined;
    Alcotest.test_case "arithmetic subgoals" `Quick test_arithmetic;
    Alcotest.test_case "cross product" `Quick test_cross_product;
    Alcotest.test_case "head constants" `Quick test_head_constant;
    Alcotest.test_case "head constants with params" `Quick
      test_head_constant_with_params;
    Alcotest.test_case "FILTER over a head constant" `Quick
      test_filter_head_constant;
    Alcotest.test_case "parameter grouping" `Quick test_params_grouping;
    Alcotest.test_case "answers with bindings" `Quick test_answers_with_bindings;
    Alcotest.test_case "answers rejects unbound params" `Quick
      test_answers_unbound_param_rejected;
    Alcotest.test_case "unsafe rules rejected" `Quick test_unsafe_rejected;
    Alcotest.test_case "unknown predicate" `Quick test_unknown_predicate;
    Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
    Alcotest.test_case "union tabulation" `Quick test_union;
    Alcotest.test_case "duplicate head variables" `Quick test_duplicate_head_vars;
    Alcotest.test_case "fused: repeated head key dedupes" `Quick
      test_fused_repeated_key_dedupes;
    Alcotest.test_case "fused: permuted keys" `Quick test_fused_permuted_keys;
    Alcotest.test_case "fused: comparisons" `Quick test_fused_comparisons;
    Alcotest.test_case "fused: after a repeated fresh variable" `Quick
      test_fused_after_repeated_fresh;
    Alcotest.test_case "constants-only comparison" `Quick
      test_constants_only_comparison;
    Alcotest.test_case "fused: negation" `Quick test_fused_negation;
    Alcotest.test_case "fused: filters follow the SIP reducer" `Quick
      test_fused_filters_follow_sip;
    Alcotest.test_case "join order heuristic" `Quick test_order_body_starts_small;
    Alcotest.test_case "incremental Envs API" `Quick test_envs_incremental_api;
  ]
