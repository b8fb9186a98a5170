(* Differential suite: on fixed seeds and on QCheck's random instances,
   every executor returns exactly the answer of naive generate-and-test
   at every point of {!Qf_testgen.Testgen.space} (memo budget, memory
   budget, SIP, reuse), cold and warm; and neighbouring flocks relate
   as monotonicity (§3) says, both sides on one catalog so the memo sits
   between them.  The driver lives in [test/gen/testgen.ml]; a failure
   names the seed, the executor and the config. *)

module R = Qf_relational.Relation
open Qf_testgen.Testgen

let seeds = List.init 100 Fun.id

let basket ?(raise = 0) ~k seed =
  let rel, threshold = instance ~seed gen_basket_instance in
  basket_instance
    ~name:(Printf.sprintf "basket seed %d" seed)
    ~k (rel, threshold + raise)

(* Single instances can be too small to trip the tiny budget, so each
   family asserts that it spilled somewhere. *)
let assert_spilled family spills =
  if spills = 0 then
    Alcotest.failf "%s: the tiny memory budget (%d bytes) never spilled"
      family tiny_mem

let test_pairs_corpus () =
  assert_spilled "pairs" (check_corpus (List.map (basket ~k:2) seeds))

(* The triple flock, whose plans cost the optimizer more, on every fourth
   seed and on seeds 11 and 42: the first twelve of these under three
   points of the space each, so every point runs on one triples
   instance, and the rest under the default config. *)
let test_triples_corpus () =
  let swept = List.length space / 3 in
  let instances =
    List.map (basket ~k:3)
      (List.filter (fun seed -> seed mod 4 = 0 || seed = 11 || seed = 42) seeds)
  in
  List.iteri
    (fun i inst ->
      if i >= swept then ignore (check ~configs:[ default_config ] inst))
    instances;
  assert_spilled "triples"
    (check_corpus ~points:3 (List.filteri (fun i _ -> i < swept) instances))

let union_rules = [ "answer(X) :- p(X,$a)"; "answer(X) :- q(X,$a)" ]

let union_instance ~name inst = pq_instance ~name inst union_rules

let test_union_corpus () =
  ignore
    (check_corpus
       (List.map
          (fun seed ->
            union_instance
              ~name:(Printf.sprintf "union seed %d" seed)
              (instance ~seed gen_union_instance))
          seeds))

(* The union corpus's relations are too small to spill; most of these,
   one under each tiny-budget point, do, so a union's FILTER runs spilled
   (in direct, a plan step, or [Dynamic]'s interposed filters). *)
let test_union_spills () =
  let tiny = List.filter (fun c -> c.mem = Some tiny_mem) space in
  assert_spilled "large unions"
    (List.fold_left ( + ) 0
       (List.mapi
          (fun seed config ->
            check ~configs:[ config ]
              (union_instance
                 ~name:(Printf.sprintf "large union seed %d" seed)
                 (instance ~seed
                    (gen_pq_instance ~max_value:10 ~max_rows:40))))
          tiny))

let prop_random ~name ~count arb inst =
  QCheck.Test.make ~name ~count (QCheck.pair arb arb_config)
    (fun (x, config) ->
      ignore (check ~configs:[ config ] (inst x));
      true)

let prop_random_baskets =
  prop_random
    ~name:"random baskets under a random config: every executor = naive"
    ~count:100 arb_basket_instance
    (basket_instance ~name:"random baskets" ~k:2)

let prop_random_triples =
  prop_random
    ~name:"random triples under a random config: every executor = naive"
    ~count:6 arb_basket_instance
    (basket_instance ~name:"random triples" ~k:3)

let prop_random_unions =
  prop_random
    ~name:"random unions under a random config: every executor = naive"
    ~count:80 arb_union_instance
    (union_instance ~name:"random union")

(* {1 Metamorphic properties} *)

let subset a b = R.fold (fun tuple ok -> ok && R.mem b tuple) a true

(* The neighbours' seeds: the threshold property runs triples on the
   first three. *)
let neighbour_seeds = List.init 20 Fun.id

let test_raise_threshold () =
  List.iter
    (fun seed ->
      let k = if seed < 3 then 3 else 2 in
      let low, high =
        check_neighbours (basket ~k seed) (basket ~raise:1 ~k seed)
      in
      if not (subset high low) then
        Alcotest.failf "seed %d: raising the threshold added answers" seed)
    neighbour_seeds

let pq seed rules =
  pq_instance
    ~name:(Printf.sprintf "p/q seed %d" seed)
    (instance ~seed gen_union_instance)
    rules

let base = "answer(X) :- p(X,$a) AND q(X,$b)"
let branch = "answer(X) :- q(X,$a) AND p(X,$b)"

let test_add_subgoal () =
  List.iter
    (fun seed ->
      let fewer, more =
        check_neighbours (pq seed [ base ]) (pq seed [ base ^ " AND p(X,$b)" ])
      in
      if not (subset more fewer) then
        Alcotest.failf "seed %d: a subgoal added answers" seed)
    neighbour_seeds

let test_add_branch () =
  List.iter
    (fun seed ->
      let one, two =
        check_neighbours (pq seed [ base ]) (pq seed [ base; branch ])
      in
      if not (subset one two) then
        Alcotest.failf "seed %d: a union branch removed answers" seed)
    neighbour_seeds

let same_answer seed a b =
  if R.to_sorted_list a <> R.to_sorted_list b then
    Alcotest.failf "seed %d: renaming and reordering changed the answer" seed

(* $a and $b renamed $c and $d (the same order, so the same columns) and
   each body reversed: in one rule, whose answer a swap of the parameter
   columns changes, and in the union with its branches swapped. *)
let test_rename_reorder () =
  List.iter
    (fun seed ->
      let a, b =
        check_neighbours (pq seed [ base ])
          (pq seed [ "answer(X) :- q(X,$d) AND p(X,$c)" ])
      in
      same_answer seed a b;
      let a, b =
        check_neighbours
          (pq seed [ base; branch ])
          (pq seed
             [
               "answer(X) :- p(X,$d) AND q(X,$c)";
               "answer(X) :- q(X,$d) AND p(X,$c)";
             ])
      in
      same_answer seed a b)
    neighbour_seeds

let suite =
  [
    Alcotest.test_case
      "basket pairs corpus: every executor = naive in every config" `Slow
      test_pairs_corpus;
    Alcotest.test_case
      "basket triples corpus: every executor = naive in every config" `Slow
      test_triples_corpus;
    Alcotest.test_case "union corpus: every executor = naive in every config"
      `Slow test_union_corpus;
    Alcotest.test_case "large unions spill under the tiny budget" `Slow
      test_union_spills;
    QCheck_alcotest.to_alcotest prop_random_baskets;
    QCheck_alcotest.to_alcotest prop_random_triples;
    QCheck_alcotest.to_alcotest prop_random_unions;
    Alcotest.test_case "raising the threshold gives a subset" `Slow
      test_raise_threshold;
    Alcotest.test_case "adding a subgoal gives a subset" `Slow
      test_add_subgoal;
    Alcotest.test_case "adding a union branch gives a superset" `Slow
      test_add_branch;
    Alcotest.test_case "renaming and reordering keep the answer" `Slow
      test_rename_reorder;
  ]
