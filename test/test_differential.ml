(* Differential harness: on a corpus of seeded random flock instances,
   every executor must produce exactly the answer relation of naive
   generate-and-test — {!Direct.run}, the optimizer's chosen plan, the
   a-priori singleton plan and dynamic filter selection — and the
   levelwise, union, SIP/memo and governed variants must match the
   direct or unreduced answer.

   Unlike the QCheck properties (fresh random instances per run), this
   suite replays fixed seeds, so a regression reproduces byte-for-byte and
   the failing seed is named in the assertion message. *)

module R = Qf_relational.Relation
module Catalog = Qf_relational.Catalog
open Qf_core
open Qf_testgen.Testgen

let seeds = List.init 100 Fun.id

let instance_of_seed seed = instance ~seed gen_basket_instance

(* All executors on one instance; returns (executor name, result) pairs. *)
let run_executors cat flock =
  let direct = Direct.run cat flock in
  let optimized = Plan_exec.run cat (Optimizer.optimize cat flock) in
  let singleton =
    match Apriori_gen.singleton_plan flock with
    | Ok p -> Plan_exec.run cat p
    | Error e -> failwith ("singleton plan: " ^ e)
  in
  let dynamic =
    match Dynamic.run cat flock with
    | Ok r -> r.Dynamic.answers
    | Error e -> failwith ("dynamic: " ^ e)
  in
  [
    "direct", direct;
    "optimized plan", optimized;
    "singleton plan", singleton;
    "dynamic", dynamic;
  ]

let check_seed seed =
  let rel, threshold = instance_of_seed seed in
  let cat = catalog_of rel in
  let flock = pair_flock threshold in
  let expected = Naive.run cat flock in
  List.iter
    (fun (name, got) ->
      if not (R.equal expected got) then
        Alcotest.failf "seed %d: %s disagrees with naive (threshold %d)\n%s"
          seed name threshold (pp_relation rel))
    (run_executors cat flock);
  (* The tabulation skips its dedupe pass when it keeps every bound key,
     trusting that environment rows are distinct; a rebuild through
     [R.add], which dedupes, must not shrink it. *)
  List.iter
    (fun rule ->
      let tab = Qf_datalog.Eval.tabulate cat rule in
      let rebuilt = R.create (R.schema tab) in
      R.iter (R.add rebuilt) tab;
      if R.cardinal rebuilt <> R.cardinal tab then
        Alcotest.failf
          "seed %d: tabulation has duplicate rows (%d, %d distinct)" seed
          (R.cardinal tab) (R.cardinal rebuilt))
    flock.Flock.query

let test_corpus_agrees () = List.iter check_seed seeds

(* The levelwise market-basket plan (k = 3, with its step reuse and
   subset pruning) against direct, on a smaller slice of the corpus. *)
let test_levelwise_agrees () =
  List.iter
    (fun seed ->
      let rel, threshold = instance_of_seed seed in
      let cat = catalog_of rel in
      let flock, plan =
        Apriori_gen.levelwise_basket ~pred:"baskets" ~k:3 ~support:threshold
      in
      let expected = Direct.run cat flock in
      let got = Plan_exec.run cat plan in
      if not (R.equal expected got) then
        Alcotest.failf "seed %d: levelwise k=3 disagrees with direct" seed)
    (List.filteri (fun i _ -> i mod 4 = 0) seeds)

(* Union flocks: two branches over independent random relations, dynamic
   with aggressive filtering vs direct. *)
let gen_union_instance =
  QCheck.Gen.(
    let* a = gen_small_relation ~columns:[ "X"; "Y" ] ~max_value:4 ~max_rows:15 in
    let* b = gen_small_relation ~columns:[ "X"; "Y" ] ~max_value:4 ~max_rows:15 in
    let* t = int_range 1 3 in
    return (a, b, t))

let test_union_corpus_agrees () =
  List.iter
    (fun seed ->
      let a, b, threshold = instance ~seed gen_union_instance in
      let cat = Catalog.create () in
      Catalog.add cat "p" a;
      Catalog.add cat "q" b;
      let flock =
        Parse.flock_exn
          (Printf.sprintf
             "QUERY:\n\
              answer(X) :- p(X,$a)\n\
              answer(X) :- q(X,$a)\n\
              FILTER:\n\
              COUNT(answer.X) >= %d"
             threshold)
      in
      let expected = Direct.run cat flock in
      let config = { Dynamic.ratio_factor = 1e9; improvement_factor = 1e9 } in
      match Dynamic.run ~config cat flock with
      | Ok r ->
        if not (R.equal expected r.Dynamic.answers) then
          Alcotest.failf "seed %d: union dynamic disagrees with direct" seed
      | Error e -> Alcotest.failf "seed %d: union dynamic failed: %s" seed e)
    (List.filteri (fun i _ -> i mod 2 = 0) seeds)

(* The SIP/memo executor against the unreduced baseline, across memo
   budgets (0 disables the memo, a tiny budget forces evictions mid-run,
   [max_int] is unbounded).  Each
   configuration runs the levelwise plan twice on the same catalog so the
   warm run exercises memo hits and the reducer caches. *)
let test_reduced_equals_unreduced_matrix () =
  let unreduced =
    {
      Plan_exec.semijoin_reduction = false;
      reuse = false;
    }
  in
  List.iter
    (fun seed ->
      let rel, threshold = instance_of_seed seed in
      let cat = catalog_of rel in
      let _, plan =
        Apriori_gen.levelwise_basket ~pred:"baskets" ~k:3 ~support:threshold
      in
      let expected = Plan_exec.run ~options:unreduced cat plan in
      List.iter
        (fun budget ->
          Catalog.set_memo_budget cat budget;
          Catalog.memo_clear cat;
          List.iter
            (fun pass ->
              let got = Plan_exec.run cat plan in
              if not (R.equal expected got) then
                Alcotest.failf
                  "seed %d: reduced (budget %d, %s run) disagrees with \
                   unreduced"
                  seed budget pass)
            [ "cold"; "warm" ])
        [ 0; 2048; max_int ])
    (List.filteri (fun i _ -> i mod 10 = 0) seeds)

(* The governed matrix: budgets (the QF_MEM_BUDGET axis — a tiny budget
   that forces the spill kernels, a 64k budget that mostly fits, and
   unbounded).  Every configuration must produce
   exactly the ungoverned direct answer, and the tiny budget must
   actually exercise the spill paths somewhere in the slice (asserted on
   the aggregate spill-partition count, since individual seeds can be too
   small to trip the gate). *)
let test_governed_matrix () =
  let module Governor = Qf_governor.Governor in
  let tiny = 4096 in
  let tiny_spills = ref 0 in
  List.iter
    (fun seed ->
      let rel, threshold = instance_of_seed seed in
      let flock = pair_flock threshold in
      let cat = catalog_of rel in
      let expected = Direct.run cat flock in
      List.iter
        (fun budget ->
          let g = Governor.create ~mem_budget:budget () in
          let got =
            Governor.with_ctx g (fun () ->
                Plan_exec.run cat (Optimizer.optimize cat flock))
          in
          if budget = tiny then
            tiny_spills :=
              !tiny_spills + (Governor.stats g).Governor.spill_partitions;
          if not (R.equal expected got) then
            Alcotest.failf
              "seed %d: governed plan (budget %d) disagrees with direct" seed
              budget)
        [ tiny; 65536; max_int ])
    (List.filteri (fun i _ -> i mod 10 = 0) seeds);
  Alcotest.(check bool)
    "the tiny budget actually spilled somewhere in the slice" true
    (!tiny_spills > 0)

let suite =
  [
    Alcotest.test_case "100-seed corpus: every executor = naive" `Slow
      test_corpus_agrees;
    Alcotest.test_case "levelwise k=3 plan = direct" `Slow
      test_levelwise_agrees;
    Alcotest.test_case "union corpus: dynamic = direct" `Slow
      test_union_corpus_agrees;
    Alcotest.test_case
      "sip/memo matrix: reduced = unreduced across budgets"
      `Slow test_reduced_equals_unreduced_matrix;
    Alcotest.test_case
      "governed matrix: budgets = ungoverned direct"
      `Slow test_governed_matrix;
  ]
