(* Sideways information passing and the cross-level subplan memo: the LRU
   byte-budget policy, Bloom/exact reducer membership laws, canonical
   step signatures, memo-hit cascades across levelwise runs, and the
   reduced = unreduced differential matrix over memo budgets. *)
module R = Qf_relational.Relation
module V = Qf_relational.Value
module Catalog = Qf_relational.Catalog
module Dict = Qf_relational.Dict
module Lru = Qf_relational.Lru
module Sip = Qf_relational.Sip
module Obs = Qf_obs.Obs
module Ast = Qf_datalog.Ast
open Qf_core
open Qf_testgen.Testgen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Reducer membership of an integer value, through its dictionary code. *)
let mem_int t i = Sip.mem t (Dict.encode (V.Int i))

let no_shortcut =
  {
    Plan_exec.semijoin_reduction = false;
    reuse = false;
  }

(* {1 Lru} *)

let test_lru_policy () =
  let t : (string, int) Lru.t = Lru.create ~budget:100 in
  check_int "empty" 0 (Lru.length t);
  check_int "no eviction under budget" 0 (Lru.add t "a" 1 ~bytes:40);
  check_int "no eviction under budget" 0 (Lru.add t "b" 2 ~bytes:40);
  check_int "total tracks declared bytes" 80 (Lru.total_bytes t);
  (* Touch [a] so [b] becomes the least recently used entry. *)
  check_bool "hit" true (Lru.find t "a" = Some 1);
  check_int "one eviction past the budget" 1 (Lru.add t "c" 3 ~bytes:40);
  check_bool "lru entry evicted" true (Lru.find t "b" = None);
  check_bool "recently used survives" true (Lru.find t "a" = Some 1);
  check_bool "new entry resident" true (Lru.find t "c" = Some 3);
  check_int "running eviction count" 1 (Lru.evictions t);
  (* Replacing a key swaps its bytes, not duplicates them. *)
  check_int "replace without eviction" 0 (Lru.add t "a" 9 ~bytes:10);
  check_int "replacement adjusts total" 50 (Lru.total_bytes t);
  (* Shrinking the budget evicts immediately; budget 0 disables. *)
  check_int "shrink evicts to fit" 2 (Lru.set_budget t 0);
  check_int "disabled table holds nothing" 0 (Lru.length t);
  check_int "add is a no-op at budget 0" 0 (Lru.add t "d" 4 ~bytes:1);
  check_bool "find misses at budget 0" true (Lru.find t "d" = None)

let test_lru_oversized_entry () =
  let t : (int, unit) Lru.t = Lru.create ~budget:10 in
  (* An entry larger than the whole budget is admitted and immediately
     evicted (returned in the eviction count) — the table never ends up
     over budget. *)
  let evicted = Lru.add t 1 () ~bytes:1000 in
  check_bool "oversized entry does not stick" true
    (Lru.total_bytes t <= 10 && evicted >= 1)

(* {1 Reducer membership laws} *)

let prop_bloom_no_false_negatives =
  QCheck.Test.make ~name:"Bloom reducers never report a false negative"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 300) (int_range (-1000) 10_000))
    (fun ints ->
      let codes =
        Array.of_list (List.map (fun i -> Dict.encode (V.Int i)) ints)
      in
      let t = Sip.bloom_of_codes codes in
      (not (Sip.is_exact t))
      && Array.for_all (fun c -> Sip.mem t c) codes)

(* A reducer over a one-column relation of the given integers. *)
let of_ints ints =
  Sip.of_column (R.of_values [ "V" ] (List.map (fun i -> [ V.Int i ]) ints)) "V"

let prop_exact_reducers_are_exact =
  QCheck.Test.make
    ~name:"exact reducers have no false positives (and of_column dedups)"
    ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 100) (int_range 0 500))
        (int_range 501 2000))
    (fun (ints, outside) ->
      let t = of_ints ints in
      Sip.is_exact t
      && List.for_all (mem_int t) ints
      && not (mem_int t outside))

let test_of_column_matches_column () =
  let rel =
    R.of_values [ "X"; "Y" ]
      V.[ [ Int 1; Int 10 ]; [ Int 2; Int 20 ]; [ Int 1; Int 30 ] ]
  in
  let t = Sip.of_column rel "X" in
  check_bool "small column summarized exactly" true (Sip.is_exact t);
  check_bool "column values member" true
    (mem_int t 1 && mem_int t 2);
  check_bool "other column's values are not" true
    (not (mem_int t 10));
  let kept = Sip.filter rel ~pos:0 (of_ints [ 1 ]) in
  check_int "filter keeps matching rows" 2 (R.cardinal kept)

(* {1 Step signatures} *)

let rule_exn text =
  match Qf_datalog.Parser.parse_rule text with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse_rule %s: %s" text e

let baskets_catalog () =
  let cat = Catalog.create () in
  Catalog.add cat "baskets"
    (R.of_values [ "B"; "I" ]
       V.
         [
           [ Int 1; Int 10 ];
           [ Int 1; Int 20 ];
           [ Int 2; Int 10 ];
           [ Int 3; Int 30 ];
         ]);
  cat

let test_stepsig_alpha_equivalence () =
  let cat = baskets_catalog () in
  let filter = Filter.count_at_least 2 in
  let sig_of name text =
    Stepsig.of_step ~work:cat ~filter (Plan.step ~name [ rule_exn text ])
  in
  let s1 = sig_of "ok_1" "answer(B) :- baskets(B,$1)" in
  let s2 = sig_of "ok_2" "answer(C) :- baskets(C,$2)" in
  check_bool "signatures exist" true (s1 <> None && s2 <> None);
  check_bool "parameter and variable renamings agree" true (s1 = s2);
  let s3 = sig_of "ok_3" "answer(B) :- baskets($3,B)" in
  check_bool "argument positions matter" true (s1 <> s3);
  let other =
    Stepsig.of_step ~work:cat ~filter:(Filter.count_at_least 3)
      (Plan.step ~name:"ok_1" [ rule_exn "answer(B) :- baskets(B,$1)" ])
  in
  check_bool "thresholds are part of the signature" true (s1 <> other)

let test_stepsig_version_sensitivity () =
  let cat = baskets_catalog () in
  let filter = Filter.count_at_least 2 in
  let step = Plan.step ~name:"ok_1" [ rule_exn "answer(B) :- baskets(B,$1)" ] in
  let before = Stepsig.of_step ~work:cat ~filter step in
  (* A different relation object under the same name must change the
     dependency part of the signature — this is what invalidates memo
     entries on catalog mutation. *)
  Catalog.add cat "baskets"
    (R.of_values [ "B"; "I" ] V.[ [ Int 1; Int 10 ] ]);
  let after = Stepsig.of_step ~work:cat ~filter step in
  check_bool "dependency identity is embedded" true
    (before <> None && after <> None && before <> after);
  let missing =
    Stepsig.of_step ~work:cat ~filter
      (Plan.step ~name:"ok_1" [ rule_exn "answer(B) :- nowhere(B,$1)" ])
  in
  check_bool "unresolvable predicates are not memoized" true (missing = None)

(* {1 Constants in signatures}

   Two steps that differ only in the type or the low digits of a constant
   must get different signatures, or one is served the other's result.
   [r(B,$1,c1) AND r(B,$2,c2)] over baskets [b] holding [(a, c1)] and
   [(x, c2)]: the answer is [(a, x)], which a conflated signature turns
   into no answer at all. *)
let constant_plan (t1, c1) (t2, c2) =
  let rows =
    List.concat_map
      (fun b -> V.[ [ Int b; Str "a"; c1 ]; [ Int b; Str "x"; c2 ] ])
      [ 1; 2; 3 ]
  in
  let flock =
    Parse.flock_exn
      (Printf.sprintf
         "QUERY:\nanswer(B) :- r(B,$1,%s) AND r(B,$2,%s)\nFILTER:\n\
          COUNT(answer.B) >= 2"
         t1 t2)
  in
  let plan =
    match Apriori_gen.param_set_plan flock ~param_sets:[ [ "1" ]; [ "2" ] ] with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  R.of_values [ "B"; "I"; "W" ] rows, flock, plan

let test_stepsig_distinguishes_constants () =
  List.iter
    (fun (((t1, _) as c1), ((t2, _) as c2)) ->
      let label = t1 ^ " vs " ^ t2 in
      let rel, flock, plan = constant_plan c1 c2 in
      List.iter
        (fun budget ->
          let cat = Catalog.create () in
          Catalog.add cat "r" rel;
          (match budget with
          | Some b -> Catalog.set_memo_budget cat b
          | None -> ());
          let expected = Direct.run cat flock in
          check_bool (label ^ ": direct finds (a, x)") true
            (R.equal expected
               (R.of_values [ "$1"; "$2" ] V.[ [ Str "a"; Str "x" ] ]));
          check_bool
            (Printf.sprintf "%s: plan = direct at memo budget %s" label
               (match budget with Some b -> string_of_int b | None -> "default"))
            true
            (R.equal expected (Plan_exec.run cat plan));
          let signature name =
            Stepsig.of_step ~work:cat ~filter:flock.Flock.filter
              (List.find (fun (s : Plan.step) -> s.name = name) plan.Plan.steps)
          in
          check_bool (label ^ ": the two steps' signatures differ") true
            (signature "ok_1" <> None && signature "ok_1" <> signature "ok_2"))
        [ None; Some 0 ])
    V.
      [
        ("1", Int 1), ("1.0", Real 1.0);
        ("0.1234567", Real 0.1234567), ("0.1234568", Real 0.1234568);
      ]

(* {1 Plan-local reuse}

   Two steps equal up to renaming their parameter {e and} a variable are
   computed once, whatever the catalog's memo budget, and the aliased
   pair shares its semijoin reducer.  A step keeps the flock's head, so
   the renamed variable is a body-only one: [T] in [ok_1], [U] in
   [ok_2]. *)
let test_plan_local_reuse () =
  (* Items 1 and 2 in every basket, one rare item per basket: the ok
     steps keep 2 of 22 items, so reductions are worth placing. *)
  let rel =
    R.of_values [ "B"; "T"; "I" ]
      (List.concat_map
         (fun b ->
           V.
             [
               [ Int b; Int 0; Int 1 ];
               [ Int b; Int 0; Int 2 ];
               [ Int b; Int 1; Int (100 + b) ];
             ])
         (List.init 20 Fun.id))
  in
  let cat = Catalog.create () in
  Catalog.add cat "r" rel;
  Catalog.set_memo_budget cat 0;
  let flock =
    Parse.flock_exn
      "QUERY:\nanswer(B) :- r(B,T,$1) AND r(B,U,$2) AND $1 < $2\n\
       FILTER:\nCOUNT(answer.B) >= 3"
  in
  let step name text = Plan.step ~name [ rule_exn text ] in
  let plan =
    match
      Plan.make flock
        ~steps:
          [
            step "ok_1" "answer(B) :- r(B,T,$1)";
            step "ok_2" "answer(B) :- r(B,U,$2)";
          ]
        ~final:
          (step "result"
             "answer(B) :- r(B,T,$1) AND r(B,U,$2) AND $1 < $2 AND \
              ok_1($1) AND ok_2($2)")
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  let report =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled was)
      (fun () -> Plan_exec.run_with_report cat plan)
  in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name (Obs.report ()).Obs.counters)
  in
  check_bool "plan = direct" true
    (R.equal (Direct.run cat flock) report.Plan_exec.result);
  (match report.Plan_exec.steps with
  | [ ok_1; ok_2; _ ] ->
    check_bool "ok_1 is computed" true (ok_1.Plan_exec.reused_from = None);
    check_bool "ok_2 reuses ok_1" true
      (ok_2.Plan_exec.reused_from = Some "ok_1");
    check_int "ok_2 tabulates nothing" 0 ok_2.Plan_exec.tabulated_rows;
    check_bool "a plan-local hit is no memo hit" false ok_2.Plan_exec.memo_hit
  | _ -> Alcotest.fail "expected three step reports");
  check_int "one reducer for the aliased pair" 1 (counter "sip.reducer_built");
  check_bool "both parameters' base atoms are reduced" true
    (counter "sip.rows_pruned" > 0)

(* {1 Memo-hit cascade across levelwise runs} *)

let test_memo_cascade_across_levels () =
  let rel, threshold = instance ~seed:5 gen_basket_instance in
  let cat = catalog_of rel in
  Catalog.set_memo_budget cat max_int;
  let run k =
    let flock, plan =
      Apriori_gen.levelwise_basket ~pred:"baskets" ~k ~support:threshold
    in
    let report = Plan_exec.run_with_report cat plan in
    Direct.run cat flock, report
  in
  let expected3, r3 = run 3 in
  check_bool "k=3 levelwise = direct" true
    (R.equal expected3 r3.Plan_exec.result);
  check_bool "first run computes (no memo hits)" true
    (List.for_all
       (fun (s : Plan_exec.step_report) -> not s.memo_hit)
       r3.Plan_exec.steps);
  (* Re-running k=3 must recompute nothing: every step is either a memo
     hit or a within-run symmetry alias of one. *)
  let _, r3' = run 3 in
  check_bool "second k=3 run recomputes nothing" true
    (List.for_all
       (fun (s : Plan_exec.step_report) -> s.tabulated_rows = 0)
       r3'.Plan_exec.steps);
  check_bool "second k=3 run has memo hits" true
    (List.exists
       (fun (s : Plan_exec.step_report) -> s.memo_hit)
       r3'.Plan_exec.steps);
  (* The cross-level cascade (the tentpole property): k=4's aux steps at
     sizes 1..2 match k=3's, and its 3-parameter step is α-equivalent to
     k=3's *final* query, so only the final 4-parameter step computes. *)
  let expected4, r4 = run 4 in
  check_bool "k=4 levelwise = direct" true
    (R.equal expected4 r4.Plan_exec.result);
  let aux, final =
    match List.rev r4.Plan_exec.steps with
    | f :: rest -> List.rev rest, f
    | [] -> Alcotest.fail "empty report"
  in
  check_bool "k=4 auxiliary steps all reuse k=3's work" true
    (List.for_all (fun (s : Plan_exec.step_report) -> s.tabulated_rows = 0) aux);
  check_bool "k=4's 3-set step memo-hits k=3's final query" true
    (List.exists
       (fun (s : Plan_exec.step_report) ->
         s.memo_hit && String.length s.step_name >= 2)
       aux);
  check_bool "only the k=4 final step computes" true
    (final.tabulated_rows > 0 || final.groups = 0);
  let hits, misses, _ = Catalog.memo_stats cat in
  check_bool "memo stats recorded hits and misses" true
    (hits > 0 && misses > 0)

(* {1 Differential matrix: memo budgets} *)

let test_reduced_equals_unreduced_matrix () =
  List.iter
    (fun seed ->
      let rel, threshold = instance ~seed gen_basket_instance in
      let cat = catalog_of rel in
      let flock, plan =
        Apriori_gen.levelwise_basket ~pred:"baskets" ~k:3 ~support:threshold
      in
      let expected = Direct.run cat flock in
      let fail name =
        Alcotest.failf "seed %d: %s disagrees with direct" seed name
      in
      (* Fully unreduced baseline. *)
      let base = Plan_exec.run ~options:no_shortcut cat plan in
      if not (R.equal expected base) then fail "unreduced";
      List.iter
        (fun budget ->
          Catalog.set_memo_budget cat budget;
          Catalog.memo_clear cat;
          (* Cold then warm: the second run exercises memo hits (or, at
             budget 0 / tiny budgets, eviction paths). *)
          let cold = Plan_exec.run cat plan in
          let warm = Plan_exec.run cat plan in
          if not (R.equal expected cold) then
            fail (Printf.sprintf "reduced cold (budget %d)" budget);
          if not (R.equal expected warm) then
            fail (Printf.sprintf "reduced warm (budget %d)" budget))
        [ 0; 2048; max_int ])
    [ 0; 11; 42 ]

(* {1 Counter determinism} *)

(* The memo and sip obs counters must repeat exactly on a fresh catalog —
   [flockc explain --profile] output is a golden fixture. *)
let test_counters_repeat () =
  let rel, threshold = instance ~seed:3 gen_basket_instance in
  let counters () =
    let was = Obs.enabled () in
    Obs.set_enabled true;
    Obs.reset ();
    Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
    let cat = catalog_of rel in
    Catalog.set_memo_budget cat max_int;
    let _, plan =
      Apriori_gen.levelwise_basket ~pred:"baskets" ~k:3 ~support:threshold
    in
    ignore (Plan_exec.run cat plan);
    ignore (Plan_exec.run cat plan);
    let report = Obs.report () in
    List.filter
      (fun (k, _) ->
        String.starts_with ~prefix:"sip." k
        || String.starts_with ~prefix:"memo." k
        || String.starts_with ~prefix:"index_cache.evict" k)
      report.Obs.counters
  in
  let reference = counters () in
  check_bool "sip/memo counters present" true (reference <> []);
  Alcotest.(check (list (pair string int))) "second run" reference (counters ())

(* {1 Bounded index cache} *)

let test_index_cache_eviction () =
  let cat = Catalog.create () in
  let rel i =
    R.of_values [ "X"; "Y" ]
      (List.init 50 (fun j -> V.[ Int ((100 * i) + j); Int j ]))
  in
  List.iteri (fun i r -> Catalog.add cat (Printf.sprintf "r%d" i) r)
    (List.init 4 rel);
  (* A budget big enough for roughly one index: building four must
     evict. *)
  Catalog.set_index_budget cat 4000;
  List.iter
    (fun i ->
      ignore (Catalog.index cat (Catalog.find cat (Printf.sprintf "r%d" i)) [ 0 ]))
    [ 0; 1; 2; 3 ];
  check_bool "evictions counted" true (Catalog.index_evictions cat > 0);
  (* Evicted indexes rebuild on demand and still answer correctly. *)
  let idx = Catalog.index cat (Catalog.find cat "r0") [ 0 ] in
  check_bool "rebuilt index still probes" true
    (Test_util.index_matches idx [ V.Int 0 ] <> []);
  (* Budget 0 disables caching: every request is a miss, nothing sticks. *)
  Catalog.set_index_budget cat 0;
  Catalog.reset_index_stats cat;
  ignore (Catalog.index cat (Catalog.find cat "r1") [ 0 ]);
  ignore (Catalog.index cat (Catalog.find cat "r1") [ 0 ]);
  let hits, misses = Catalog.index_stats cat in
  check_bool "budget 0 never hits" true (hits = 0 && misses = 2)

let suite =
  [
    Alcotest.test_case "LRU byte-budget policy" `Quick test_lru_policy;
    Alcotest.test_case "LRU oversized entries" `Quick test_lru_oversized_entry;
    QCheck_alcotest.to_alcotest prop_bloom_no_false_negatives;
    QCheck_alcotest.to_alcotest prop_exact_reducers_are_exact;
    Alcotest.test_case "of_column / filter semantics" `Quick
      test_of_column_matches_column;
    Alcotest.test_case "step signatures are α-equivalence classes" `Quick
      test_stepsig_alpha_equivalence;
    Alcotest.test_case "step signatures track relation versions" `Quick
      test_stepsig_version_sensitivity;
    Alcotest.test_case "step signatures tell 1 from 1.0" `Quick
      test_stepsig_distinguishes_constants;
    Alcotest.test_case "plan-local reuse at memo budget 0" `Quick
      test_plan_local_reuse;
    Alcotest.test_case "memo cascade: k=3 run primes k=4" `Slow
      test_memo_cascade_across_levels;
    Alcotest.test_case
      "reduced = unreduced across budgets" `Slow
      test_reduced_equals_unreduced_matrix;
    Alcotest.test_case "sip/memo counters repeat across runs" `Slow
      test_counters_repeat;
    Alcotest.test_case "index cache evicts within its budget" `Quick
      test_index_cache_eviction;
  ]
