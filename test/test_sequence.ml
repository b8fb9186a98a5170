(* Flock sequences for maximal frequent itemsets (paper footnote 2). *)
open Qf_core
module R = Qf_relational.Relation
module V = Qf_relational.Value
module Catalog = Qf_relational.Catalog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let catalog_of_baskets baskets =
  let cat = Catalog.create () in
  let rel = R.create (Qf_relational.Schema.of_list [ "BID"; "Item" ]) in
  List.iteri
    (fun bid items ->
      List.iter (fun i -> R.add rel (Qf_relational.Tuple.of_array [| V.Int (bid + 1); V.Int i |])) items)
    baskets;
  Catalog.add cat "baskets" rel;
  cat

(* Hand-checkable: {1,2,3} in 3 baskets, {4,5} in 2, singleton 6 in 2. *)
let cat () =
  catalog_of_baskets
    [
      [ 1; 2; 3 ];
      [ 1; 2; 3; 6 ];
      [ 1; 2; 3 ];
      [ 4; 5 ];
      [ 4; 5; 6 ];
    ]

let test_levels () =
  let levels = Sequence.frequent_levels (cat ()) ~pred:"baskets" ~support:2 in
  check_int "three levels" 3 (List.length levels);
  let by_k k = (List.find (fun (l : Sequence.level) -> l.k = k) levels).itemsets in
  check_int "L1: 1,2,3,4,5,6" 6 (R.cardinal (by_k 1));
  (* L2: all pairs of {1,2,3} (3), {4,5} (1) = 4. *)
  check_int "L2" 4 (R.cardinal (by_k 2));
  check_int "L3" 1 (R.cardinal (by_k 3));
  check_bool "triple present" true (R.mem (by_k 3) (Qf_relational.Tuple.of_array [| V.Int 1; V.Int 2; V.Int 3 |]))

let test_maximal () =
  let levels = Sequence.frequent_levels (cat ()) ~pred:"baskets" ~support:2 in
  let maximal = Sequence.maximal levels in
  (* Maximal: {1,2,3}, {4,5}, {6}. *)
  check_int "three maximal sets" 3 (List.length maximal);
  let mem k tup = List.exists (fun (k', t) -> k = k' && Qf_relational.Tuple.equal t tup) maximal in
  check_bool "{1,2,3}" true (mem 3 (Qf_relational.Tuple.of_array [| V.Int 1; V.Int 2; V.Int 3 |]));
  check_bool "{4,5}" true (mem 2 (Qf_relational.Tuple.of_array [| V.Int 4; V.Int 5 |]));
  check_bool "{6}" true (mem 1 (Qf_relational.Tuple.of_array [| V.Int 6 |]));
  check_bool "{1,2} not maximal" false (mem 2 (Qf_relational.Tuple.of_array [| V.Int 1; V.Int 2 |]))

let test_empty_when_support_too_high () =
  check_int "no levels" 0
    (List.length (Sequence.frequent_levels (cat ()) ~pred:"baskets" ~support:10))

let test_max_k_caps () =
  let levels =
    Sequence.frequent_levels ~max_k:1 (cat ()) ~pred:"baskets" ~support:2
  in
  check_int "capped at one level" 1 (List.length levels)

(* Cross-check every level against the dedicated miner on generated data. *)
let test_levels_match_classic () =
  let cat =
    Qf_workload.Market.catalog
      { Qf_workload.Market.default with n_baskets = 300; n_items = 60; seed = 23 }
  in
  let support = 15 in
  let levels = Sequence.frequent_levels cat ~pred:"baskets" ~support in
  let db =
    Qf_apriori.Apriori.db_of_relation (Catalog.find cat "baskets")
  in
  let classic = Qf_apriori.Apriori.mine db ~support ~max_size:9 in
  check_int "same number of levels" (List.length classic) (List.length levels);
  List.iteri
    (fun i (level : Sequence.level) ->
      let classic_level = List.nth classic i in
      check_int
        (Printf.sprintf "level %d size" level.k)
        (List.length classic_level)
        (R.cardinal level.itemsets);
      List.iter
        (fun (f : Qf_apriori.Apriori.frequent) ->
          let tup =
            Qf_relational.Tuple.of_list
              (List.map (fun x -> V.Int x) (Qf_apriori.Itemset.to_list f.itemset))
          in
          check_bool "itemset present" true (R.mem level.itemsets tup))
        classic_level)
    levels

(* Maximality, brute force: a maximal itemset has no frequent superset at
   any higher level (not just one level up — but frequency is downward
   closed, so one level up suffices; verify that reasoning holds on data). *)
let test_maximal_brute_force () =
  let cat =
    Qf_workload.Market.catalog
      { Qf_workload.Market.default with n_baskets = 200; n_items = 40; seed = 29 }
  in
  let support = 12 in
  let levels = Sequence.frequent_levels cat ~pred:"baskets" ~support in
  let maximal = Sequence.maximal levels in
  let all_frequent =
    List.concat_map
      (fun (l : Sequence.level) ->
        List.map (fun t -> l.k, t) (R.to_sorted_list l.itemsets))
      levels
  in
  let tuple_subset a b =
    Seq.for_all
      (fun v -> Seq.exists (V.equal v) (Qf_relational.Tuple.to_seq b))
      (Qf_relational.Tuple.to_seq a)
  in
  List.iter
    (fun (k, tup) ->
      let has_proper_superset =
        List.exists
          (fun (k', sup) -> k' > k && tuple_subset tup sup)
          all_frequent
      in
      check_bool "no frequent superset at any level" false has_proper_superset)
    maximal;
  (* And every frequent itemset without a superset is reported maximal. *)
  List.iter
    (fun (k, tup) ->
      let has_superset =
        List.exists
          (fun (k', sup) -> k' > k && tuple_subset tup sup)
          all_frequent
      in
      if not has_superset then
        check_bool "reported as maximal" true
          (List.exists
             (fun (k', t) -> k = k' && Qf_relational.Tuple.equal t tup)
             maximal))
    all_frequent

(* Every flock of the sequence runs through the plan executor, so a repeat
   on the same catalog is answered by the memo, one hit per level. *)
let test_repeat_served_by_memo () =
  let run budget =
    let cat = cat () in
    Catalog.set_memo_budget cat budget;
    let first = Sequence.frequent_levels cat ~pred:"baskets" ~support:2 in
    let hits, misses, _ = Catalog.memo_stats cat in
    let second = Sequence.frequent_levels cat ~pred:"baskets" ~support:2 in
    let hits', misses', _ = Catalog.memo_stats cat in
    check_bool "equal levels" true
      (List.equal
         (fun (a : Sequence.level) (b : Sequence.level) ->
           a.k = b.k && R.equal a.itemsets b.itemsets)
         first second);
    List.length first, hits' - hits, misses' - misses, hits'
  in
  let n, hits, misses, _ = run max_int in
  check_int "one hit per level" n hits;
  check_int "no misses" 0 misses;
  let _, _, _, total_hits = run 0 in
  check_int "no hits at budget 0" 0 total_hits

(* The quadratic definition [Sequence.maximal] used to run, kept as its
   specification: a level's itemset is maximal when no itemset one level
   up contains it (both ascending, so a merge walk decides containment). *)
let maximal_spec (levels : Sequence.level list) =
  let subset a b =
    let module T = Qf_relational.Tuple in
    let la = T.arity a and lb = T.arity b in
    let rec loop i j =
      if i >= la then true
      else if j >= lb then false
      else
        let c = V.compare (T.get a i) (T.get b j) in
        if c = 0 then loop (i + 1) (j + 1)
        else if c > 0 then loop i (j + 1)
        else false
    in
    loop 0 0
  in
  let rec walk = function
    | [] -> []
    | [ (last : Sequence.level) ] ->
      List.map (fun tup -> last.k, tup) (R.to_sorted_list last.itemsets)
    | (current : Sequence.level) :: ((next : Sequence.level) :: _ as rest) ->
      let supersets = R.to_list next.itemsets in
      List.filter_map
        (fun tup ->
          if List.exists (fun sup -> subset tup sup) supersets then None
          else Some (current.k, tup))
        (R.to_sorted_list current.itemsets)
      @ walk rest
  in
  walk levels

(* Random levels 1..n over the items 0..7: each a set of ascending k-item
   tuples, not necessarily downward closed. *)
let arb_levels =
  let open QCheck.Gen in
  let itemset k =
    map (List.sort_uniq compare) (list_repeat k (int_bound 7))
  in
  let level k =
    map
      (fun sets -> k, List.filter (fun s -> List.length s = k) sets)
      (list_size (int_bound 16) (itemset k))
  in
  let gen =
    int_range 1 4 >>= fun n -> flatten_l (List.init n (fun i -> level (i + 1)))
  in
  QCheck.make
    ~print:(fun levels ->
      String.concat " | "
        (List.map
           (fun (_, sets) ->
             String.concat " "
               (List.map
                  (fun s -> String.concat "," (List.map string_of_int s))
                  sets))
           levels))
    gen

let to_levels =
  List.map (fun (k, sets) ->
      let rel =
        R.create
          (Qf_relational.Schema.of_list
             (List.init k (fun i -> Printf.sprintf "$%d" (i + 1))))
      in
      List.iter
        (fun s ->
          R.add rel
            (Qf_relational.Tuple.of_list (List.map (fun i -> V.Int i) s)))
        sets;
      { Sequence.k; itemsets = rel })

let prop_maximal_matches_spec =
  QCheck.Test.make ~count:300 ~name:"maximal = the quadratic definition"
    arb_levels (fun levels ->
      let levels = to_levels levels in
      List.equal
        (fun (k, a) (k', b) -> k = k' && Qf_relational.Tuple.equal a b)
        (Sequence.maximal levels) (maximal_spec levels))

let suite =
  [
    Alcotest.test_case "frequent levels" `Quick test_levels;
    Alcotest.test_case "maximal itemsets" `Quick test_maximal;
    Alcotest.test_case "empty at high support" `Quick
      test_empty_when_support_too_high;
    Alcotest.test_case "max_k caps the sequence" `Quick test_max_k_caps;
    Alcotest.test_case "levels match the classic miner" `Quick
      test_levels_match_classic;
    Alcotest.test_case "maximality, brute force" `Quick test_maximal_brute_force;
    Alcotest.test_case "a repeated sequence is served by the memo" `Quick
      test_repeat_served_by_memo;
    QCheck_alcotest.to_alcotest prop_maximal_matches_spec;
  ]
