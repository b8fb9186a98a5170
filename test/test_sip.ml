(* Sideways information passing and the cross-level subplan memo: the LRU
   byte-budget policy, exact reducer membership laws, canonical
   step signatures and memo-hit cascades across levelwise runs.  Answers
   across memo budgets and SIP on and off are the differential suite's
   config space. *)
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

(* [f ()] with tracing on, and what it recorded. *)
let traced f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled was)
    (fun () ->
      let r = f () in
      r, Obs.report ())

let counter (report : Obs.report) name =
  Option.value ~default:0 (List.assoc_opt name report.Obs.counters)

(* The binding extensions recorded, as (subgoal predicate, candidates). *)
let extends (report : Obs.report) =
  List.filter_map
    (fun (s : Obs.span) ->
      match
        s.Obs.name, List.assoc_opt "pred" s.attrs,
        List.assoc_opt "candidates" s.attrs
      with
      | "eval.extend", Some (Obs.Str pred), Some (Obs.Int n) -> Some (pred, n)
      | _ -> None)
    report.Obs.spans

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

(* A reducer over a one-column relation of the given integers. *)
let of_ints ints =
  Sip.of_column (R.of_values [ "V" ] (List.map (fun i -> [ V.Int i ]) ints)) "V"

(* Members are in and every other code is out: the value lists may be
   empty (an empty column), the probes include codes past the bitset's
   end and values first encoded after the reducer was built. *)
let prop_exact_reducers_are_exact =
  QCheck.Test.make
    ~name:
      "reducers are exact: no false negative, no false positive, on empty \
       columns and on codes past the bitset or encoded later"
    ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 300) (int_range (-1000) 10_000))
        (list_of_size Gen.(int_range 0 50) (int_range (-1000) 1_000_000)))
    (fun (ints, probes) ->
      let t = of_ints ints in
      let from_codes =
        Sip.of_codes
          (Array.of_list (List.map (fun i -> Dict.encode (V.Int i)) ints))
      in
      let exact t =
        List.for_all (mem_int t) ints
        && List.for_all (fun i -> List.mem i ints = mem_int t i) probes
        && (not (Sip.mem t (Dict.size ())))
        && (not (Sip.mem t (Dict.size () + 4096)))
        && not (Sip.mem t max_int)
      in
      exact t && exact from_codes)

let test_of_column_matches_column () =
  let rel =
    R.of_values [ "X"; "Y" ]
      V.[ [ Int 1; Int 10 ]; [ Int 2; Int 20 ]; [ Int 1; Int 30 ] ]
  in
  let t = Sip.of_column rel "X" in
  check_bool "column values member" true
    (mem_int t 1 && mem_int t 2);
  check_bool "other column's values are not" true
    (not (mem_int t 10));
  check_bool "a column of a wider relation summarizes nothing" false
    (Sip.summarizes t rel);
  check_bool "a reducer over codes summarizes nothing" false
    (Sip.summarizes (Sip.of_codes [| Dict.encode (V.Int 1) |]) rel);
  let ok = R.of_values [ "V" ] V.[ [ Int 1 ] ] in
  let t = Sip.of_column ok "V" in
  check_bool "a one-column relation's reducer summarizes it" true
    (Sip.summarizes t ok);
  check_bool "but not another relation with the same rows" false
    (Sip.summarizes t (R.of_values [ "V" ] V.[ [ Int 1 ] ]));
  R.add ok (Qf_relational.Tuple.of_list V.[ Int 2 ]);
  check_bool "nor a later version of it" false (Sip.summarizes t ok)

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
   pair shares its SIP reducer.  A step keeps the flock's head, so
   the renamed variable is a body-only one: [T] in [ok_1], [U] in
   [ok_2]. *)
let test_plan_local_reuse () =
  (* Items 1 and 2 in every basket, one rare item per basket: the ok
     steps keep 2 of 22 items. *)
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
  let report, trace = traced (fun () -> Plan_exec.run_with_report cat plan) in
  check_bool "plan = direct" true
    (R.equal (Direct.run cat flock) report.Plan_exec.result);
  (match report.Plan_exec.steps with
  | [ ok_1; ok_2; result ] ->
    check_bool "ok_1 is computed" true (ok_1.Plan_exec.reused_from = None);
    check_bool "ok_2 reuses ok_1" true
      (ok_2.Plan_exec.reused_from = Some "ok_1");
    check_int "ok_2 tabulates nothing" 0 ok_2.Plan_exec.tabulated_rows;
    check_bool "a plan-local hit is no memo hit" false ok_2.Plan_exec.memo_hit;
    (* The two-row ok relations come first in the join order and bind
       both parameters, so both are probed and no reducer rejects. *)
    check_bool "the final step probes both ok subgoals" true
      (List.mem_assoc "ok_1" (extends trace)
      && List.mem_assoc "ok_2" (extends trace));
    check_int "no candidate is pruned" 0 result.Plan_exec.sip_pruned
  | _ -> Alcotest.fail "expected three step reports");
  check_int "one reducer for the aliased pair" 1
    (counter trace "sip.reducer_built");
  check_int "and the counter agrees" 0 (counter trace "sip.rows_pruned")

(* {1 Reducers at binding time}

   E1's plan shape: [ok_1] and [ok_2] over the pair flock's items, then
   [baskets(B,$1) AND baskets(B,$2) AND $1 < $2 AND ok_1($1) AND
   ok_2($2)].  Basket [b] holds the frequent items [b], [b+1] and [b+3]
   (mod 10) and one rare item of its own.  The final step's join order
   binds [$1] from [ok_1], then [B] and [$2] from [baskets]: the reducer
   of [$2] rejects every basket's rare item there, and [ok_2($2)], which
   follows, is not probed. *)
let e1_catalog () =
  catalog_of
    (R.of_values [ "BID"; "Item" ]
       (List.concat_map
          (fun b ->
            List.map
              (fun i -> V.[ Int b; Int i ])
              [ b mod 10; (b + 1) mod 10; (b + 3) mod 10; 100 + b ])
          (List.init 40 Fun.id)))

let test_reducers_at_binding_time () =
  let flock = Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support:5 in
  let plan =
    match Apriori_gen.singleton_plan flock with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let expected = Naive.run (e1_catalog ()) flock in
  let run sip =
    let cat = e1_catalog () in
    Catalog.set_memo_budget cat 0;
    let options = { Plan_exec.default_options with semijoin_reduction = sip } in
    traced (fun () -> Plan_exec.run_with_report ~options cat plan)
  in
  let report, trace = run true in
  check_bool "SIP on: plan = naive" true
    (R.equal expected report.Plan_exec.result);
  check_bool "ok_1 binds $1 and is probed" true
    (List.mem_assoc "ok_1" (extends trace));
  check_bool "ok_2 is not probed once baskets bound $2" false
    (List.mem_assoc "ok_2" (extends trace));
  let pruned =
    List.fold_left
      (fun n (s : Plan_exec.step_report) -> n + s.sip_pruned)
      0 report.Plan_exec.steps
  in
  check_int "each basket's rare item is pruned under each $1" 120 pruned;
  check_int "the steps' sip_pruned sum to the counter" pruned
    (counter trace "sip.rows_pruned");
  let report, trace = run false in
  check_bool "SIP off: plan = naive" true
    (R.equal expected report.Plan_exec.result);
  check_bool "SIP off: ok_2 is probed" true
    (List.mem_assoc "ok_2" (extends trace));
  check_int "SIP off: nothing pruned" 0 (counter trace "sip.rows_pruned")

(* A renamed n-ary ok subgoal reads each parameter's reducer at its
   argument's position: [ok_1_2($3,$2)] renames the step's [$1] to [$3],
   so [$3] reads column 0 ([$1]'s) and [$2] column 1.  Ranking the
   arguments by name instead reads [$3] from [$2]'s column, where the
   only value is 20, not 10, and drops the one answer. *)
let test_renamed_reducer_columns () =
  let catalog () =
    let cat = Catalog.create () in
    Catalog.add cat "p" (R.of_values [ "B"; "X" ] V.[ [ Int 1; Int 10 ] ]);
    Catalog.add cat "q" (R.of_values [ "B"; "Y" ] V.[ [ Int 1; Int 20 ] ]);
    cat
  in
  let flock =
    Parse.flock_exn
      "QUERY:\nanswer(B) :- p(B,$1) AND q(B,$2) AND p(B,$3)\n\
       FILTER:\nCOUNT(answer.B) >= 1"
  in
  let plan =
    match
      Plan.make flock
        ~steps:
          [ Plan.step ~name:"ok_1_2" [ rule_exn "answer(B) :- p(B,$1) AND q(B,$2)" ] ]
        ~final:
          (Plan.step ~name:"result"
             [
               rule_exn
                 "answer(B) :- p(B,$1) AND q(B,$2) AND p(B,$3) AND \
                  ok_1_2($3,$2)";
             ])
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let expected = Direct.run (catalog ()) flock in
  check_int "direct finds (10,20,10)" 1 (R.cardinal expected);
  let run cat ~sip ~reuse =
    Plan_exec.run_with_report
      ~options:{ Plan_exec.semijoin_reduction = sip; reuse }
      cat plan
  in
  let on = run (catalog ()) ~sip:true ~reuse:true in
  check_bool "SIP on: plan = direct" true
    (R.equal expected on.Plan_exec.result);
  check_int "SIP on: no candidate of the answer is pruned" 0
    (List.fold_left
       (fun n (s : Plan_exec.step_report) -> n + s.sip_pruned)
       0 on.Plan_exec.steps);
  let off = run (catalog ()) ~sip:false ~reuse:false in
  check_bool "SIP and reuse off: plan = direct" true
    (R.equal expected off.Plan_exec.result);
  (* At the default memo budget a later SIP-off run is served the SIP-on
     run's steps: they must hold the right answer. *)
  let cat = catalog () in
  ignore (run cat ~sip:true ~reuse:true);
  let later = run cat ~sip:false ~reuse:true in
  check_bool "a memo-served SIP-off run = direct" true
    (R.equal expected later.Plan_exec.result)

(* Reducers only ever remove work: on 100 basket instances, every plan
   the optimizer enumerates matches no more candidates in its binding
   extensions with SIP on than with it off, and gives the same answer. *)
let test_reducers_never_add_candidates () =
  let fewer = ref 0 in
  for seed = 0 to 99 do
    let rel, threshold = instance ~seed gen_basket_instance in
    let k = 2 + (seed mod 2) in
    let flock = Apriori_gen.basket_flock ~pred:"baskets" ~k ~support:threshold in
    List.iter
      (fun (choice : Optimizer.choice) ->
        let run sip =
          let cat = catalog_of rel in
          Catalog.set_memo_budget cat 0;
          let options =
            { Plan_exec.default_options with semijoin_reduction = sip }
          in
          let result, trace =
            traced (fun () -> Plan_exec.run ~options cat choice.plan)
          in
          result, List.fold_left (fun n (_, c) -> n + c) 0 (extends trace)
        in
        let on, c_on = run true and off, c_off = run false in
        let where =
          Printf.sprintf "seed %d (k = %d), parameter sets %s" seed k
            (String.concat " "
               (List.map
                  (fun set -> "{" ^ String.concat "," set ^ "}")
                  choice.param_sets))
        in
        check_bool (where ^ ": same answer") true (R.equal on off);
        if c_on > c_off then
          Alcotest.failf "%s: %d candidates with SIP on, %d off" where c_on
            c_off;
        if c_on < c_off then incr fewer)
      (Optimizer.enumerate (catalog_of rel) flock)
  done;
  check_bool "some plan matches fewer candidates with SIP on" true (!fewer > 0)

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
    QCheck_alcotest.to_alcotest prop_exact_reducers_are_exact;
    Alcotest.test_case "of_column / summarizes semantics" `Quick
      test_of_column_matches_column;
    Alcotest.test_case "step signatures are α-equivalence classes" `Quick
      test_stepsig_alpha_equivalence;
    Alcotest.test_case "step signatures track relation versions" `Quick
      test_stepsig_version_sensitivity;
    Alcotest.test_case "step signatures tell 1 from 1.0" `Quick
      test_stepsig_distinguishes_constants;
    Alcotest.test_case "plan-local reuse at memo budget 0" `Quick
      test_plan_local_reuse;
    Alcotest.test_case "reducers enforce ok subgoals at binding time" `Quick
      test_reducers_at_binding_time;
    Alcotest.test_case "renamed ok subgoals read the argument's column" `Quick
      test_renamed_reducer_columns;
    Alcotest.test_case "reducers never add candidates (100 basket seeds)"
      `Slow test_reducers_never_add_candidates;
    Alcotest.test_case "memo cascade: k=3 run primes k=4" `Slow
      test_memo_cascade_across_levels;
    Alcotest.test_case "sip/memo counters repeat across runs" `Slow
      test_counters_repeat;
    Alcotest.test_case "index cache evicts within its budget" `Quick
      test_index_cache_eviction;
  ]
