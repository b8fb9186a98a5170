(* Plan generation (Apriori_gen), cost model, and the static optimizer. *)
open Qf_core
module Ast = Qf_datalog.Ast
module Sizes = Qf_datalog.Sizes
module Catalog = Qf_relational.Catalog
module R = Qf_relational.Relation

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let market_catalog () =
  Qf_workload.Market.catalog
    { Qf_workload.Market.default with n_baskets = 400; n_items = 120; seed = 2 }

let test_basket_flock_shape () =
  let flock = Apriori_gen.basket_flock ~pred:"baskets" ~k:3 ~support:10 in
  check_int "one rule" 1 (Flock.rule_count flock);
  Alcotest.(check (list string)) "params" [ "1"; "2"; "3" ] (Flock.params flock);
  let body = (List.hd flock.Flock.query).Ast.body in
  (* 3 atoms + 3 pairwise comparisons *)
  check_int "body size" 6 (List.length body)

let test_basket_flock_bounds () =
  Alcotest.check_raises "k too large"
    (Invalid_argument "basket_flock: k must be in 1..9") (fun () ->
      ignore (Apriori_gen.basket_flock ~pred:"b" ~k:10 ~support:1))

(* [basket_rule] is the one builder of the k-item basket rule: pin its
   body, and that the basket flock and every level of the levelwise plan
   are built from it. *)
let test_basket_rule () =
  let check_rule what expected rule =
    match Qf_datalog.Parser.parse_rule expected with
    | Error e -> Alcotest.failf "parse %S: %s" expected e
    | Ok r ->
      if not (Ast.equal_rule r rule) then
        Alcotest.failf "%s: got %s" what
          (Qf_datalog.Pretty.rule_to_string rule)
  in
  check_rule "k=3 with prev"
    "answer(B) :- b(B,$1) AND b(B,$2) AND b(B,$3) AND $1 < $2 AND $1 < $3 \
     AND $2 < $3 AND p($2,$3) AND p($1,$3) AND p($1,$2)"
    (Apriori_gen.basket_rule ~pred:"b" ~prev:"p" 3);
  check_rule "k=1 ignores prev" "answer(B) :- b(B,$1)"
    (Apriori_gen.basket_rule ~pred:"b" ~prev:"p" 1);
  let flock = Apriori_gen.basket_flock ~pred:"b" ~k:3 ~support:2 in
  check_rule "basket_flock"
    "answer(B) :- b(B,$1) AND b(B,$2) AND b(B,$3) AND $1 < $2 AND $1 < $3 \
     AND $2 < $3"
    (List.hd flock.Flock.query);
  let _, plan = Apriori_gen.levelwise_basket ~pred:"b" ~k:3 ~support:2 in
  List.iter2
    (fun expected (step : Plan.step) ->
      check_rule step.Plan.name expected (List.hd step.Plan.query))
    [
      "answer(B) :- b(B,$1)";
      "answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2 AND ok_1($2) AND ok_1($1)";
      "answer(B) :- b(B,$1) AND b(B,$2) AND b(B,$3) AND $1 < $2 AND $1 < $3 \
       AND $2 < $3 AND ok_1_2($2,$3) AND ok_1_2($1,$3) AND ok_1_2($1,$2)";
    ]
    (Plan.all_steps plan)

let test_singleton_plan_structure () =
  let flock = Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support:10 in
  match Apriori_gen.singleton_plan flock with
  | Error e -> Alcotest.failf "singleton: %s" e
  | Ok plan ->
    check_int "one filter step for the symmetric class" 1
      (Plan.filter_step_count plan);
    Alcotest.(check string)
      "summary" "ok_1($1|$2) -> result($1,$2)"
      (Explain.plan_summary plan)

let test_param_set_plan_errors () =
  let flock = Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support:10 in
  check_bool "unknown param" true
    (Result.is_error (Apriori_gen.param_set_plan flock ~param_sets:[ [ "zz" ] ]));
  check_bool "empty set" true
    (Result.is_error (Apriori_gen.param_set_plan flock ~param_sets:[ [] ]))

let test_levelwise_structure () =
  let _, plan = Apriori_gen.levelwise_basket ~pred:"baskets" ~k:3 ~support:10 in
  check_int "k-1 levels" 2 (Plan.filter_step_count plan);
  (* Level 2 must prune with BOTH 1-subsets; level 3 (final) with all three
     2-subsets. *)
  let step2 = List.nth (Plan.all_steps plan) 1 in
  let ok_atoms =
    List.filter
      (function
        | Ast.Pos a -> a.Ast.pred = "ok_1"
        | _ -> false)
      (List.hd step2.Plan.query).Ast.body
  in
  check_int "two ok_1 prunes at level 2" 2 (List.length ok_atoms);
  let final = List.nth (Plan.all_steps plan) 2 in
  let ok2_atoms =
    List.filter
      (function
        | Ast.Pos a -> a.Ast.pred = "ok_1_2"
        | _ -> false)
      (List.hd final.Plan.query).Ast.body
  in
  check_int "three ok_1_2 prunes at level 3" 3 (List.length ok2_atoms)

let test_levelwise_equivalence () =
  let cat = market_catalog () in
  List.iter
    (fun (k, support) ->
      let flock, plan = Apriori_gen.levelwise_basket ~pred:"baskets" ~k ~support in
      Alcotest.check Test_util.relation
        (Printf.sprintf "k=%d support=%d" k support)
        (Direct.run cat flock) (Plan_exec.run cat plan))
    [ 2, 20; 2, 60; 3, 20 ]

let test_chain_plan_structure_and_equivalence () =
  let cat =
    Qf_workload.Graph.generate
      { Qf_workload.Graph.default with n_nodes = 120; max_out_degree = 25; seed = 4 }
  in
  let flock = Qf_workload.Graph.path_flock ~n:2 ~support:10 in
  let plan = Qf_workload.Graph.chain_plan flock ~n:2 in
  check_int "n steps before final" 2 (Plan.filter_step_count plan);
  Alcotest.check Test_util.relation "chain plan = direct" (Direct.run cat flock)
    (Plan_exec.run cat plan)

let test_chain_plan_rejects_union () =
  let flock =
    Parse.flock_exn
      "QUERY:\nanswer(X) :- arc(X,$a)\nanswer(X) :- arc($a,X)\nFILTER:\nCOUNT(answer.X) >= 1"
  in
  check_bool "union rejected" true
    (Result.is_error (Apriori_gen.chain_plan flock ~prefixes:[ [ 0 ] ]))

let test_cost_model_sanity () =
  let cat = market_catalog () in
  let env = Sizes.of_catalog cat in
  let flock = Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support:20 in
  let rule = List.hd flock.Flock.query in
  let est = Cost.estimate_rule env rule in
  check_bool "positive work" true (est.Cost.work > 0.);
  check_bool "positive rows" true (est.Cost.rows > 0.);
  (* A subquery costs no more than the full query under the model. *)
  let sub =
    match Qf_datalog.Subquery.minimal_for_params rule [ "1" ] with
    | Some c -> c.Qf_datalog.Subquery.rule
    | None -> Alcotest.fail "no candidate"
  in
  let est_sub = Cost.estimate_rule env sub in
  check_bool "subquery is cheaper" true (est_sub.Cost.work <= est.Cost.work)

let test_cost_groups () =
  let cat = market_catalog () in
  let env = Sizes.of_catalog cat in
  let flock = Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support:20 in
  let groups = Cost.estimate_groups env flock.Flock.query [ "1"; "2" ] in
  let items = float_of_int (List.length (R.column_values (Catalog.find cat "baskets") "Item")) in
  Alcotest.(check (float 1.)) "groups = items^2" (items *. items) groups

let test_cost_counted_survivors () =
  (* For a single-subgoal single-parameter COUNT step, the model's survivor
     estimate must equal the exact frequency-distribution count. *)
  let cat = market_catalog () in
  let env = Sizes.of_catalog cat in
  let rule =
    match Qf_datalog.Parser.parse_rule "answer(B) :- baskets(B,$1)" with
    | Ok r -> r
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let step = Plan.step ~name:"ok_1" [ rule ] in
  let stats = Catalog.stats cat "baskets" in
  List.iter
    (fun threshold ->
      let _, out =
        Cost.estimate_step env ~filter:(Filter.count_at_least threshold) step
      in
      let exact =
        Qf_relational.Statistics.count_at_least stats "Item" threshold
      in
      Alcotest.(check (float 0.5))
        (Printf.sprintf "survivors at %d" threshold)
        (float_of_int (max 1 exact))
        out.Sizes.rows)
    [ 1; 5; 20; 60; 10_000 ];
  (* Items a, b, c in 2, 3 and 1 baskets.  [COUNT >= 2.4] keeps the items
     in at least 3 baskets — b alone, as [Direct] finds.  [SUM(answer.B)
     >= 3] is no frequency question (every item's basket ids sum to at
     least 3, so [Direct] keeps all three): its estimate is the linear
     heuristic's 3 groups x (2 rows per group / 3) = 2, not the 1 item
     found in at least 3 baskets. *)
  let cat = Catalog.create () in
  Catalog.add cat "baskets"
    (R.of_values [ "BID"; "Item" ]
       (List.map
          (fun (b, i) -> [ Qf_relational.Value.Int b; Qf_relational.Value.Str i ])
          [ 1, "a"; 2, "a"; 1, "b"; 2, "b"; 3, "b"; 4, "c" ]));
  let env = Sizes.of_catalog cat in
  let estimate filter =
    let flock = Flock.make_exn [ rule ] filter in
    let _, out = Cost.estimate_step env ~filter step in
    out.Sizes.rows, R.cardinal (Direct.run cat flock)
  in
  let est, direct = estimate { Filter.agg = Count; threshold = 2.4 } in
  check_int "COUNT >= 2.4: direct" 1 direct;
  Alcotest.(check (float 1e-9)) "COUNT >= 2.4: exact estimate" 1. est;
  let est, direct = estimate (Filter.sum_at_least "B" 3.) in
  check_int "SUM >= 3: direct" 3 direct;
  Alcotest.(check (float 1e-9)) "SUM >= 3: linear estimate" 2. est

(* On a tie in estimated matches the model prices the order [Eval] runs:
   [r(X,Y,"3")] (one probe, 10 rows) then [s(Y)] (10 probes, one match
   each): work 1 + 10 + 10 + 10 = 31.  [s(Y)] first would cost 1 + 10,
   then 10 probes of 100 / 5 / 10 = 2 matches each: work 41, rows 20. *)
let test_cost_prices_eval_order () =
  let cat = Test_util.tie_catalog () in
  let rule = Test_util.tie_rule in
  Alcotest.(check (list string))
    "Eval's order"
    [ {|r(X,Y,"3")|}; "s(Y)" ]
    (List.map Qf_datalog.Pretty.literal_to_string
       (Qf_datalog.Eval.order_body cat rule));
  let est = Cost.estimate_rule (Sizes.of_catalog cat) rule in
  Alcotest.(check (float 1e-9)) "work" 31. est.Cost.work;
  Alcotest.(check (float 1e-9)) "rows" 10. est.Cost.rows

(* Some step of the join order met several cheapest positive subgoals
   with different numbers of bound or constant positions, so the
   tie-break chose among them. *)
let tie_break_decides cat (r : Ast.rule) =
  let matches = Sizes.expected_matches (Sizes.of_catalog cat) in
  let bound_positions bound (a : Ast.atom) =
    List.length
      (List.filter
         (function
           | Ast.Const _ -> true
           | (Ast.Var _ | Ast.Param _) as t ->
             List.mem (Ast.binding_key t) bound)
         a.args)
  in
  let rec steps = function
    | [] -> false
    | (bound, Ast.Pos _) :: _ as here ->
      let scored =
        List.filter_map
          (function
            | _, Ast.Pos a ->
              Some (matches bound a, bound_positions bound a)
            | _, (Ast.Neg _ | Ast.Cmp _) -> None)
          here
      in
      let least = List.fold_left (fun m (e, _) -> Float.min m e) infinity scored in
      let tied =
        List.sort_uniq Int.compare
          (List.filter_map
             (fun (e, bp) -> if e = least then Some bp else None)
             scored)
      in
      List.length tied > 1 || steps (List.tl here)
    | _ :: rest -> steps rest
  in
  steps
    (Qf_datalog.Eval.greedy_order ~matches r.Ast.body)

(* Over the random safe rules of the test generator, on base relations,
   the model's estimate of a rule equals its estimate of the same rule
   with the body already in [Eval]'s order: the model walks that order,
   ties included.  The corpus must contain rules whose order a tie-break
   decides, or the property would not test the tie-break. *)
let test_cost_walks_eval_order () =
  let ties = ref 0 in
  for seed = 0 to 299 do
    let rule, cat =
      Qf_testgen.Testgen.(
        instance ~seed (QCheck.Gen.pair gen_safe_rule gen_tiny_catalog))
    in
    let env = Sizes.of_catalog cat in
    let ordered =
      { rule with Ast.body = Qf_datalog.Eval.order_body cat rule }
    in
    let estimate r =
      let e = Cost.estimate_rule env r in
      e.Cost.work, e.Cost.rows
    in
    Alcotest.(check (pair (float 0.) (float 0.)))
      (Qf_datalog.Pretty.rule_to_string rule)
      (estimate ordered) (estimate rule);
    if tie_break_decides cat rule then incr ties
  done;
  check_bool "the corpus has decisive ties" true (!ties > 0)

(* The same agreement on the final step of every plan the optimizer
   enumerates over the basket corpus, with the auxiliary steps'
   outputs in the catalog as the executor has them: the model walks
   [Eval]'s order over those statistics, with the plan's reducers and
   the ok subgoals they enforce.  The corpus must hold plans whose final
   step renames a class's ok subgoal. *)
let test_cost_walks_eval_order_final () =
  let renamed = ref 0 in
  for seed = 0 to 99 do
    let rel, threshold = Qf_testgen.Testgen.(instance ~seed gen_basket_instance) in
    let k = 2 + (seed mod 2) in
    let flock = Apriori_gen.basket_flock ~pred:"baskets" ~k ~support:threshold in
    let cat = Qf_testgen.Testgen.catalog_of rel in
    List.iter
      (fun (c : Optimizer.choice) ->
        let work = Catalog.copy cat in
        let func =
          Filter.to_aggregate flock.Flock.filter ~head_columns:(Flock.head_columns flock)
        in
        List.iter
          (fun (s : Plan.step) ->
            let survivors, _, _, _ =
              Qf_datalog.Eval.filter_query work s.Plan.query
                ~keys:(List.map (fun p -> "$" ^ p) s.Plan.params)
                ~func ~threshold:flock.Flock.filter.threshold
            in
            Catalog.add work s.Plan.name survivors)
          c.plan.Plan.steps;
        let step_names = List.map (fun (s : Plan.step) -> s.Plan.name) c.plan.Plan.steps in
        let env = Sizes.of_catalog work in
        let estimate r =
          let e = Cost.estimate_rule ~step_names env r in
          e.Cost.work, e.Cost.rows
        in
        List.iter
          (fun (rule : Ast.rule) ->
            let ordered =
              { rule with Ast.body = Qf_datalog.Eval.order_body work rule }
            in
            Alcotest.(check (pair (float 0.) (float 0.)))
              (Printf.sprintf "seed %d: %s" seed (Explain.plan_summary c.plan))
              (estimate ordered) (estimate rule))
          c.plan.Plan.final.Plan.query;
        if List.length c.param_sets > List.length c.plan.Plan.steps then incr renamed)
      (Optimizer.enumerate cat flock)
  done;
  check_bool "the corpus has class plans" true (!renamed > 0)

(* The two estimates of the size model against each other and against
   the data.  Over the generator's tiny catalogs and safe rules, with a
   real step output overlaid on [q] as [Absint] overlays one (its rows as
   its distinct count), for every positive subgoal under every bound-key
   set [Eval]'s greedy walk reaches: the expected matches never exceed
   the bound, and no binding drawn from the subgoal's relation matches
   more tuples than the bound. *)
let prop_matches_within_bound =
  let step =
    Parse.flock_exn "QUERY:\nanswer(X) :- p(X,$a)\nFILTER:\nCOUNT(answer.X) >= 2"
  in
  let func =
    Filter.to_aggregate step.Flock.filter ~head_columns:(Flock.head_columns step)
  in
  QCheck.Test.make ~count:300 ~name:"sizes: expected <= max_matches >= observed"
    Qf_testgen.Testgen.arb_rule_and_catalog (fun (rule, cat) ->
      let work = Catalog.copy cat in
      let ok, _, _, _ =
        Qf_datalog.Eval.filter_query work step.Flock.query ~keys:[ "$a" ] ~func
          ~threshold:step.Flock.filter.threshold
      in
      Catalog.add work "q" ok;
      let rows = float_of_int (R.cardinal ok) in
      let sizes =
        Sizes.add (Sizes.of_catalog work) "q" (Sizes.output ~rows [ rows ])
      in
      let atoms = Ast.positive_atoms rule in
      let keys =
        List.concat_map
          (fun (a : Ast.atom) ->
            List.filter_map
              (function
                | (Ast.Var _ | Ast.Param _) as t -> Some (Ast.binding_key t)
                | Ast.Const _ -> None)
              a.args)
          atoms
      in
      let bound_sets =
        List.sort_uniq compare
          (List.sort_uniq String.compare keys
          :: List.map fst
               (Qf_datalog.Eval.greedy_order
                  ~matches:(Sizes.expected_matches sizes) rule.Ast.body))
      in
      (* The tuples of [tuples] agreeing with [t] on every constant and
         bound argument of [a]: the matches of [t]'s binding. *)
      let observed bound (a : Ast.atom) tuples t =
        let binding = List.combine a.args (Qf_relational.Tuple.to_list t) in
        let wanted =
          List.map
            (function
              | Ast.Const v -> Some v
              | (Ast.Var _ | Ast.Param _) as arg ->
                if List.mem (Ast.binding_key arg) bound then
                  Some (List.assoc arg binding)
                else None)
            a.args
        in
        List.length
          (List.filter
             (fun t' ->
               List.for_all2
                 (fun w v ->
                   match w with
                   | None -> true
                   | Some w -> Qf_relational.Value.compare w v = 0)
                 wanted
                 (Qf_relational.Tuple.to_list t'))
             tuples)
      in
      List.for_all
        (fun bound ->
          List.for_all
            (fun (a : Ast.atom) ->
              let expected = Sizes.expected_matches sizes bound a
              and most = Sizes.max_matches sizes bound a in
              let tuples = R.to_list (Catalog.find work a.pred) in
              let worst =
                List.fold_left (fun m t -> max m (observed bound a tuples t)) 0 tuples
              in
              if expected <= most && float_of_int worst <= most then true
              else
                QCheck.Test.fail_reportf
                  "%s bound {%s}: expected %g, max_matches %g, observed %d"
                  (Qf_datalog.Pretty.atom_to_string a)
                  (String.concat "," bound) expected most worst)
            atoms)
        bound_sets)

let test_optimizer_returns_correct_plan () =
  let cat = market_catalog () in
  let flock = Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support:20 in
  let plan = Optimizer.optimize cat flock in
  Alcotest.check Test_util.relation "optimized plan = direct"
    (Direct.run cat flock) (Plan_exec.run cat plan)

let test_optimizer_enumerates_trivial () =
  let cat = market_catalog () in
  let flock = Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support:20 in
  let choices = Optimizer.enumerate cat flock in
  check_bool "at least 4 alternatives" true (List.length choices >= 4);
  check_bool "includes the trivial plan" true
    (List.exists (fun c -> c.Optimizer.param_sets = []) choices);
  (* Sorted by cost ascending. *)
  let costs = List.map (fun c -> c.Optimizer.cost) choices in
  check_bool "sorted" true (List.sort compare costs = costs)

let test_optimizer_prefers_filters_on_skewed_data () =
  (* With Zipf items and a high threshold, filter steps should win under the
     model. *)
  let cat =
    Qf_workload.Market.catalog
      { Qf_workload.Market.default with n_baskets = 800; n_items = 400;
        zipf_exponent = 1.2; seed = 9 }
  in
  let flock = Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support:40 in
  match Optimizer.enumerate cat flock with
  | [] -> Alcotest.fail "no choices"
  | best :: _ ->
    check_bool "best plan uses at least one filter step" true
      (best.Optimizer.param_sets <> [])

(* [f ()] and the value of the [Obs] counter [name] it left (0 if unset). *)
let with_counter name f =
  let module Obs = Qf_obs.Obs in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled was)
    (fun () ->
      let v = f () in
      ( v,
        Option.value ~default:0
          (List.assoc_opt name (Obs.report ()).Obs.counters) ))

(* The optimizer chooses each viable parameter set's subquery once —
   four searches for a triple flock's three singletons and one triple —
   and groups the steps into α-classes: the three singleton steps are one
   class, so the search costs the four subsets of two classes, each plan
   the one [plan_of_classes] builds, with the class as one step [ok_1]
   renamed to [ok_1($1)], [ok_1($2)] and [ok_1($3)].  A pair flock also
   costs four plans. *)
let test_optimizer_chooses_each_set_once () =
  let cat = market_catalog () in
  let flock = Apriori_gen.basket_flock ~pred:"baskets" ~k:3 ~support:20 in
  let choices, searches =
    with_counter "apriori.chosen_subqueries" (fun () ->
        Optimizer.enumerate cat flock)
  in
  check_int "one search per parameter set" 4 searches;
  check_int "every subset of the two classes" 4 (List.length choices);
  let selection = `Cheapest (Sizes.of_catalog cat) in
  let step set =
    match Apriori_gen.param_set_step ~selection flock set with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let singletons = step [ "1" ], [ [ "1" ]; [ "2" ]; [ "3" ] ]
  and triple = step [ "1"; "2"; "3" ], [ [ "1"; "2"; "3" ] ] in
  List.iter
    (fun classes ->
      let param_sets = List.concat_map snd classes in
      match
        List.find_opt
          (fun (c : Optimizer.choice) -> c.param_sets = param_sets)
          choices
      with
      | None ->
        Alcotest.failf "no plan for %s"
          (String.concat " " (List.map (String.concat ",") param_sets))
      | Some c -> (
        match Apriori_gen.plan_of_classes flock classes with
        | Ok plan -> check_bool "the class plan" true (plan = c.plan)
        | Error e -> Alcotest.fail e))
    [ []; [ singletons ]; [ triple ]; [ singletons; triple ] ];
  Alcotest.(check string)
    "the class plan's summary" "ok_1($1|$2|$3) -> result($1,$2,$3)"
    (Explain.plan_summary
       (Result.get_ok (Apriori_gen.plan_of_classes flock [ singletons ])));
  check_int "a pair flock costs four plans" 4
    (List.length
       (Optimizer.enumerate cat
          (Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support:20)))

(* The grouping decides a class by renaming alone, with no catalog: that
   is sound because a rank-to-rank renaming of parameters is an
   α-equivalence, so over any catalog the members of a class have one
   {!Stepsig} signature, the memo's key.  Checked on the differential
   suite's basket corpus (pairs, and triples on every fourth seed) and
   union corpus (its one-parameter union, the metamorphic suite's
   asymmetric [p]/[q] join and union, and a symmetric two-parameter
   union), for the steps of the singletons and the full parameter set under
   both selections; and each class plan, from {!Apriori_gen.singleton_plan}
   and {!Apriori_gen.param_set_plan}, answers as [Direct] does. *)
let test_classes_share_signature () =
  let open Qf_testgen.Testgen in
  let join = "answer(X) :- p(X,$a) AND q(X,$b)" in
  let symmetric_union =
    [
      "answer(X) :- p(X,$a) AND p(X,$b) AND $a < $b";
      "answer(X) :- q(X,$a) AND q(X,$b) AND $a < $b";
    ]
  in
  let instances =
    List.concat_map
      (fun seed ->
        let baskets = instance ~seed gen_basket_instance in
        let pq = instance ~seed gen_union_instance in
        let name = Printf.sprintf "seed %d" seed in
        [
          basket_instance ~name ~k:2 baskets;
          pq_instance ~name pq [ "answer(X) :- p(X,$a)"; "answer(X) :- q(X,$a)" ];
          pq_instance ~name pq [ join ];
          pq_instance ~name pq [ join; "answer(X) :- q(X,$a) AND p(X,$b)" ];
          pq_instance ~name pq symmetric_union;
        ]
        @ if seed mod 4 = 0 then [ basket_instance ~name ~k:3 baskets ] else [])
      (List.init 100 Fun.id)
  in
  let shared = ref 0 in
  List.iter
    (fun inst ->
      let cat = catalog_of_instance inst in
      Catalog.set_memo_budget cat 0;
      let flock = inst.flock in
      let params = Flock.params flock in
      let sets =
        List.map (fun p -> [ p ]) params
        @ if List.length params >= 2 then [ params ] else []
      in
      List.iter
        (fun selection ->
          let steps =
            List.filter_map
              (fun set ->
                Result.to_option (Apriori_gen.param_set_step ~selection flock set))
              sets
          in
          List.iter
            (fun ((rep : Plan.step), members) ->
              let signature params =
                Stepsig.of_step ~work:cat ~filter:flock.Flock.filter
                  ~bounding:true
                  (List.find (fun (s : Plan.step) -> s.params = params) steps)
              in
              let first = signature rep.params in
              if first = None then
                Alcotest.failf "%s: %s has no signature" inst.name rep.name;
              if List.length members > 1 then incr shared;
              List.iter
                (fun m ->
                  if signature m <> first then
                    Alcotest.failf "%s: class %s: member {%s} signs apart"
                      inst.name rep.name (String.concat "," m))
                members)
            (Apriori_gen.classes steps))
        [ `Fewest_subgoals; `Cheapest (Sizes.of_catalog cat) ];
      let expected = Direct.run cat flock in
      let viable =
        List.filter
          (fun set -> Result.is_ok (Apriori_gen.param_set_step flock set))
          sets
      in
      List.iter
        (fun (what, plan) ->
          match plan with
          | Error e -> Alcotest.failf "%s: %s: %s" inst.name what e
          | Ok plan ->
            Alcotest.check Test_util.relation
              (Printf.sprintf "%s: %s = direct" inst.name what)
              expected (Plan_exec.run cat plan))
        [
          "singleton plan", Apriori_gen.singleton_plan flock;
          "param_set_plan", Apriori_gen.param_set_plan flock ~param_sets:viable;
        ])
    instances;
  check_bool "some class has several members" true (!shared > 0)

(* perfbench's market data (3,000 baskets of about six of 800 items,
   Zipf 0.9, seed 7): at supports 36 and 24 the pair and triple flocks
   choose a plan whose final step has a reducer on every parameter — the
   singleton class — and answer as [Direct] does. *)
let test_optimizer_reduces_every_parameter () =
  let cat =
    Qf_workload.Market.catalog
      {
        Qf_workload.Market.n_baskets = 3_000;
        n_items = 800;
        avg_basket_size = 6;
        zipf_exponent = 0.9;
        seed = 7;
      }
  in
  List.iter
    (fun (k, support) ->
      let flock = Apriori_gen.basket_flock ~pred:"baskets" ~k ~support in
      let plan = Optimizer.optimize cat flock in
      let where =
        Printf.sprintf "k=%d support=%d: %s" k support (Explain.plan_summary plan)
      in
      let reduced =
        List.map fst
          (Plan_exec.reducer_columns
             ~step_names:(List.map (fun (s : Plan.step) -> s.Plan.name) plan.Plan.steps)
             (List.hd plan.Plan.final.Plan.query))
      in
      List.iter
        (fun p -> check_bool (where ^ ": $" ^ p ^ " reduced") true (List.mem p reduced))
        (Flock.params flock);
      Alcotest.check Test_util.relation where (Direct.run cat flock)
        (Plan_exec.run cat plan))
    [ 2, 36; 2, 24; 3, 36; 3, 24 ]

let test_optimizer_non_monotone_fallback () =
  let cat = market_catalog () in
  let rule =
    match Qf_datalog.Parser.parse_rule "answer(B) :- baskets(B,$1)" with
    | Ok r -> r
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let flock = Flock.make_exn [ rule ] { Filter.agg = Min "B"; threshold = 0. } in
  let choices = Optimizer.enumerate cat flock in
  check_int "only the trivial plan" 1 (List.length choices)

(* {1 The plan memo}

   [Optimizer.enumerate] keeps its costed list in the catalog's memo,
   keyed by the flock's text and the (id, version) of every relation it
   reads. *)

let with_candidates f = with_counter "apriori.candidate_subqueries" f

let memo_catalog budget =
  let cat = market_catalog () in
  Catalog.set_memo_budget cat budget;
  cat

let pairs = Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support:20

let same_choices (a : Optimizer.choice list) (b : Optimizer.choice list) =
  List.equal
    (fun (x : Optimizer.choice) (y : Optimizer.choice) ->
      x.plan = y.plan && x.param_sets = y.param_sets && x.cost = y.cost)
    a b

let test_plan_memo_hit () =
  let cat = memo_catalog max_int in
  let first, searched = with_candidates (fun () -> Optimizer.enumerate cat pairs) in
  check_bool "the first call searches" true (searched > 0);
  let again, counted = with_candidates (fun () -> Optimizer.enumerate cat pairs) in
  check_bool "a repeat returns the stored list" true (first == again);
  check_int "a repeat counts no candidate subquery" 0 counted;
  let reparsed = Parse.flock_exn (Flock.to_string pairs) in
  check_bool "an equal flock parsed again hits" true
    (Optimizer.enumerate cat reparsed == first);
  let hits, misses, _ = Catalog.memo_stats cat in
  check_int "plan lookups count no memo hit" 0 hits;
  check_int "plan lookups count no memo miss" 0 misses;
  let uncached = Optimizer.enumerate (memo_catalog 0) pairs in
  check_bool "plans and costs equal the uncached search" true
    (same_choices first uncached)

let test_plan_memo_invalidation () =
  let cat = memo_catalog max_int in
  let baskets = Catalog.find cat "baskets" in
  let first = Optimizer.enumerate cat pairs in
  R.add baskets (R.to_list baskets |> List.hd);
  check_bool "re-adding a present row keeps the version" true
    (Optimizer.enumerate cat pairs == first);
  R.add baskets
    (Qf_relational.Tuple.of_list Qf_relational.Value.[ Int 100_000; Int 1 ]);
  let after_add = Optimizer.enumerate cat pairs in
  check_bool "Relation.add recomputes" false (after_add == first);
  check_bool "and the new list is stored" true
    (Optimizer.enumerate cat pairs == after_add);
  let rebound = R.create (R.schema baskets) in
  R.iter (R.add rebound) baskets;
  Catalog.add cat "baskets" rebound;
  let after_rebind = Optimizer.enumerate cat pairs in
  check_bool "rebinding the name recomputes" false (after_rebind == after_add);
  check_bool "an equal relation gives equal plans" true
    (same_choices after_rebind after_add);
  Catalog.remove cat "baskets";
  (match Optimizer.enumerate cat pairs with
   | _ -> Alcotest.fail "a removed relation was planned from the memo"
   | exception Failure _ -> ());
  Catalog.add cat "baskets" rebound;
  check_bool "binding the same snapshot again hits" true
    (Optimizer.enumerate cat pairs == after_rebind)

let test_plan_memo_budget_zero () =
  let cat = memo_catalog 0 in
  let first = Optimizer.enumerate cat pairs in
  check_int "nothing stored" 0 (Catalog.memo_bytes cat);
  let again, counted = with_candidates (fun () -> Optimizer.enumerate cat pairs) in
  check_bool "every call searches" true (counted > 0 && again != first)

let test_plan_memo_exact_text () =
  let cat = memo_catalog max_int in
  let numbered = Optimizer.enumerate cat pairs in
  let renamed =
    Parse.flock_exn
      "QUERY:\nanswer(B) :- baskets(B,$a) AND baskets(B,$b) AND $a < $b\n\n\
       FILTER:\nCOUNT(answer.B) >= 20\n"
  in
  let named = Optimizer.enumerate cat renamed in
  check_bool "a renamed flock is searched again" false (named == numbered);
  List.iter
    (fun (c : Optimizer.choice) ->
      List.iter
        (fun (s : Plan.step) ->
          List.iter
            (fun p -> check_bool ("plan over $a,$b: $" ^ p) true (List.mem p [ "a"; "b" ]))
            s.Plan.params)
        (Plan.all_steps c.plan);
      check_bool "the plan's flock is the renamed one" true
        (Flock.equal c.plan.Plan.flock renamed))
    named;
  let with_const c =
    Parse.flock_exn
      (Printf.sprintf
         "QUERY:\nanswer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 \
          AND B > %s\n\nFILTER:\nCOUNT(answer.B) >= 20\n"
         c)
  in
  let int_flock = with_const "1" and real_flock = with_const "1.0" in
  check_bool "1 and 1.0 are different flocks" false (Flock.equal int_flock real_flock);
  let ints = Optimizer.enumerate cat int_flock in
  let reals = Optimizer.enumerate cat real_flock in
  check_bool "Int 1 and Real 1.0 do not share an entry" false (ints == reals);
  List.iter
    (fun (c : Optimizer.choice) ->
      check_bool "plans over the Real 1.0 flock" true
        (Flock.equal c.plan.Plan.flock real_flock))
    reals;
  check_bool "the Int 1 list is still right" true
    (List.for_all
       (fun (c : Optimizer.choice) -> Flock.equal c.plan.Plan.flock int_flock)
       (Optimizer.enumerate cat int_flock))

let test_plan_memo_copies () =
  let cat = memo_catalog max_int in
  let first = Optimizer.enumerate cat pairs in
  check_bool "a copy shares the entry" true
    (Optimizer.enumerate (Catalog.copy cat) pairs == first);
  let views =
    match
      Qf_datalog.Parser.parse_rule "item_of(B,I) :- baskets(B,I)"
    with
    | Ok r -> [ r ]
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let materialize () =
    match Views.materialize cat views with
    | Ok c -> c
    | Error e -> Alcotest.failf "materialize: %s" e
  in
  let over_view = Apriori_gen.basket_flock ~pred:"item_of" ~k:2 ~support:20 in
  let c1 = materialize () in
  check_bool "a views copy shares the base flock's entry" true
    (Optimizer.enumerate c1 pairs == first);
  let on_first = Optimizer.enumerate c1 over_view in
  check_bool "the same views copy hits" true
    (Optimizer.enumerate c1 over_view == on_first);
  let on_second = Optimizer.enumerate (materialize ()) over_view in
  check_bool "new view relations are searched again" false (on_second == on_first);
  check_bool "to the same plans" true (same_choices on_first on_second)

let test_plan_memo_evicts () =
  let cat = memo_catalog 2048 in
  let _, _, evicted_before = Catalog.memo_stats cat in
  List.iter
    (fun (k, support) ->
      let flock = Apriori_gen.basket_flock ~pred:"baskets" ~k ~support in
      for _ = 1 to 2 do
        let choices = Optimizer.enumerate cat flock in
        check_bool "costs equal the uncached search" true
          (same_choices choices (Optimizer.enumerate (memo_catalog 0) flock));
        Alcotest.check Test_util.relation
          (Printf.sprintf "k=%d support %d: plan = direct" k support)
          (Direct.run cat flock)
          (Plan_exec.run cat (List.hd choices).Optimizer.plan)
      done)
    [ 2, 20; 3, 10; 2, 30 ];
  let _, _, evicted = Catalog.memo_stats cat in
  check_bool "the 2048-byte budget evicts" true (evicted > evicted_before);
  check_bool "and stays within it" true (Catalog.memo_bytes cat <= 2048)

let suite =
  [
    Alcotest.test_case "basket flock shape" `Quick test_basket_flock_shape;
    Alcotest.test_case "basket flock bounds" `Quick test_basket_flock_bounds;
    Alcotest.test_case "basket rule: one builder" `Quick test_basket_rule;
    Alcotest.test_case "singleton plan structure" `Quick
      test_singleton_plan_structure;
    Alcotest.test_case "param_set_plan errors" `Quick test_param_set_plan_errors;
    Alcotest.test_case "levelwise structure (footnote 3)" `Quick
      test_levelwise_structure;
    Alcotest.test_case "levelwise plan = direct" `Quick test_levelwise_equivalence;
    Alcotest.test_case "chain plan (Fig. 7)" `Quick
      test_chain_plan_structure_and_equivalence;
    Alcotest.test_case "chain plan rejects unions" `Quick
      test_chain_plan_rejects_union;
    Alcotest.test_case "cost model sanity" `Quick test_cost_model_sanity;
    Alcotest.test_case "cost groups estimate" `Quick test_cost_groups;
    Alcotest.test_case "cost: exact survivor counts" `Quick
      test_cost_counted_survivors;
    Alcotest.test_case "cost: ties priced in Eval's order" `Quick
      test_cost_prices_eval_order;
    Alcotest.test_case "cost walks Eval's order (corpus)" `Quick
      test_cost_walks_eval_order;
    Alcotest.test_case "cost: final steps priced in Eval's order" `Quick
      test_cost_walks_eval_order_final;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x512e5 |])
      prop_matches_within_bound;
    Alcotest.test_case "optimizer plan = direct" `Quick
      test_optimizer_returns_correct_plan;
    Alcotest.test_case "optimizer enumerates alternatives" `Quick
      test_optimizer_enumerates_trivial;
    Alcotest.test_case "optimizer prefers filters on skew" `Quick
      test_optimizer_prefers_filters_on_skewed_data;
    Alcotest.test_case "optimizer chooses each set's subquery once" `Quick
      test_optimizer_chooses_each_set_once;
    Alcotest.test_case
      "classes: members share a step signature, class plans = direct" `Quick
      test_classes_share_signature;
    Alcotest.test_case "optimizer reduces every parameter on market data" `Slow
      test_optimizer_reduces_every_parameter;
    Alcotest.test_case "plan memo: a repeat returns the stored list" `Quick
      test_plan_memo_hit;
    Alcotest.test_case "plan memo: mutation, rebinding and removal recompute"
      `Quick test_plan_memo_invalidation;
    Alcotest.test_case "plan memo: budget 0 stores nothing" `Quick
      test_plan_memo_budget_zero;
    Alcotest.test_case "plan memo: keyed by the exact flock text" `Quick
      test_plan_memo_exact_text;
    Alcotest.test_case "plan memo: copies share, new views do not" `Quick
      test_plan_memo_copies;
    Alcotest.test_case "plan memo: a small budget evicts, answers stay right"
      `Quick test_plan_memo_evicts;
    Alcotest.test_case "optimizer non-monotone fallback" `Quick
      test_optimizer_non_monotone_fallback;
  ]
