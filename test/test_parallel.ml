(* The multicore execution engine: pool mechanics, agreement of every
   parallel kernel with its sequential path (QCheck, over pool sizes
   1/2/4 with the threshold forced to 0 so the parallel code actually
   runs on small inputs), and the catalog's version-keyed index cache. *)
module R = Qf_relational.Relation
module V = Qf_relational.Value
module T = Qf_relational.Tuple
module Schema = Qf_relational.Schema
module Aggregate = Qf_relational.Aggregate
module Catalog = Qf_relational.Catalog
module Index = Qf_relational.Index
module Pool = Qf_exec_pool.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* One pool per size, shared by all the properties below (spawning domains
   per QCheck iteration would dominate the run). *)
let pool_sizes = [ 1; 2; 4 ]
let pools = List.map (fun size -> size, Pool.create ~size) pool_sizes

(* {1 Pool mechanics} *)

let test_run_all_order () =
  List.iter
    (fun (_, pool) ->
      let results =
        Pool.run_all pool (List.init 20 (fun i -> fun () -> i * i))
      in
      Alcotest.(check (list int))
        "results in input order"
        (List.init 20 (fun i -> i * i))
        results)
    pools

let test_run_all_exception () =
  let pool = List.assoc 4 pools in
  Alcotest.check_raises "first error re-raised" (Failure "boom") (fun () ->
      ignore
        (Pool.run_all pool
           (List.init 8 (fun i ->
                fun () -> if i = 5 then failwith "boom" else i))));
  (* The pool survives a failing batch. *)
  check_int "pool usable after an exception" 3
    (List.length (Pool.run_all pool [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ]))

let test_chunks_cover () =
  List.iter
    (fun (size, n) ->
      let chunks = Pool.chunks_of ~size ~n in
      (* Contiguous ascending cover of [0, n). *)
      let () =
        ignore
          (List.fold_left
             (fun expected_lo (lo, hi) ->
               check_int "contiguous" expected_lo lo;
               check_bool "non-empty or trivial" true (hi >= lo);
               hi)
             0 chunks)
      in
      check_int "covers n"
        (max 0 n)
        (List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 chunks);
      check_bool "at most size chunks" true (List.length chunks <= max 1 size))
    [ 1, 10; 4, 10; 4, 3; 8, 64; 3, 0; 5, 5 ]

let test_default_pool_resize () =
  let saved = Pool.default_size () in
  Pool.set_default_size 3;
  check_int "resized" 3 (Pool.size (Pool.default ()));
  Pool.set_default_size saved;
  check_int "restored" saved (Pool.size (Pool.default ()))

(* {1 Parallel kernels agree with the sequential paths} *)

let gen_relation ~columns ~max_value ~max_rows =
  QCheck.Gen.(
    let* n = int_range 0 max_rows in
    let* rows =
      list_size (return n)
        (list_size
           (return (List.length columns))
           (map (fun i -> V.Int i) (int_range 0 max_value)))
    in
    return (R.of_values columns rows))

let pp_relation rel = Format.asprintf "%a" R.pp rel

let arb_pair =
  QCheck.make
    ~print:(fun (a, b) -> pp_relation a ^ "\n----\n" ^ pp_relation b)
    QCheck.Gen.(
      pair
        (gen_relation ~columns:[ "X"; "Y" ] ~max_value:5 ~max_rows:24)
        (gen_relation ~columns:[ "Y"; "Z" ] ~max_value:5 ~max_rows:24))

let arb_one =
  QCheck.make ~print:pp_relation
    (gen_relation ~columns:[ "G"; "T" ] ~max_value:4 ~max_rows:30)

(* Every pool size must reproduce the sequential ([?pool] absent,
   threshold huge) result; [~par_threshold:0] forces the parallel path
   even on these tiny relations. *)
let on_all_pools f =
  List.for_all (fun (_, pool) -> f ~pool ~par_threshold:0) pools

(* Joins are rule bodies; the binding extension runs on the shared
   default pool, so each pool size is installed in turn, with the
   dispatch threshold at 1 so every extension fans out. *)
let join_parallel name text =
  QCheck.Test.make ~name ~count:100 arb_pair (fun (a, b) ->
      let cat = Catalog.create () in
      Catalog.add cat "a" a;
      Catalog.add cat "b" b;
      Catalog.add cat "bkeys" (R.project b [ "Y" ]);
      let seq = Test_util.with_pool_size 1 (fun () -> Test_util.tabulate cat text) in
      List.for_all
        (fun size ->
          Test_util.with_pool_size ~par_threshold:1 size (fun () ->
              R.equal seq (Test_util.tabulate cat text)))
        (List.tl pool_sizes))

let prop_equi_parallel =
  join_parallel "parallel equi-join = sequential"
    "answer(X,Y,Z) :- a(X,Y) AND b(Y,Z)"

let prop_semi_parallel =
  join_parallel "parallel semi-join = sequential"
    "answer(X,Y) :- a(X,Y) AND b(Y,Z)"

let prop_anti_parallel =
  join_parallel "parallel anti-join = sequential"
    "answer(X,Y) :- a(X,Y) AND NOT bkeys(Y)"

let prop_project_parallel =
  QCheck.Test.make ~name:"parallel project = sequential" ~count:100 arb_one
    (fun r ->
      let seq = R.project ~par_threshold:max_int r [ "T" ] in
      on_all_pools (fun ~pool ~par_threshold ->
          R.equal seq (R.project ~pool ~par_threshold r [ "T" ])))

let prop_group_by_parallel =
  QCheck.Test.make ~name:"parallel group_by/group_filter = sequential"
    ~count:100 arb_one (fun r ->
      let sort groups =
        List.sort
          (fun (k, _) (k', _) -> T.compare k k')
          groups
      in
      let eq (k, v) (k', v') = T.equal k k' && V.equal v v' in
      List.for_all
        (fun func ->
          let seq =
            sort (Aggregate.group_by ~par_threshold:max_int r ~keys:[ "G" ] ~func)
          in
          let seq_filter =
            Aggregate.group_filter ~par_threshold:max_int r ~keys:[ "G" ] ~func
              ~threshold:2.
          in
          on_all_pools (fun ~pool ~par_threshold ->
              let par =
                sort (Aggregate.group_by ~pool ~par_threshold r ~keys:[ "G" ] ~func)
              in
              List.length seq = List.length par
              && List.for_all2 eq seq par
              && R.equal seq_filter
                   (Aggregate.group_filter ~pool ~par_threshold r
                      ~keys:[ "G" ] ~func ~threshold:2.)))
        [ Aggregate.Count; Aggregate.Sum "T"; Aggregate.Min "T"; Aggregate.Max "T" ])

(* {1 The catalog's index cache} *)

let fresh_rel () =
  R.of_values [ "X"; "Y" ]
    V.[ [ Int 1; Int 10 ]; [ Int 1; Int 20 ]; [ Int 2; Int 30 ] ]

let test_cache_counters () =
  let cat = Catalog.create () in
  let rel = fresh_rel () in
  Catalog.reset_index_stats cat;
  let i1 = Catalog.index cat rel [ 0 ] in
  check_int "first build misses" 1 (snd (Catalog.index_stats cat));
  let i2 = Catalog.index cat rel [ 0 ] in
  Alcotest.(check (pair int int)) "second lookup hits" (1, 1)
    (Catalog.index_stats cat);
  check_bool "same index object reused" true (i1 == i2);
  (* A different position list is a different cache entry. *)
  ignore (Catalog.index cat rel [ 1 ]);
  Alcotest.(check (pair int int)) "new positions miss" (1, 2)
    (Catalog.index_stats cat)

let test_cache_invalidated_by_add () =
  let cat = Catalog.create () in
  let rel = fresh_rel () in
  let v0 = R.version rel in
  let before = Catalog.index cat rel [ 0 ] in
  check_int "stale key absent" 0
    (List.length (Test_util.index_matches before [ V.Int 9 ]));
  R.add rel (T.of_list [ V.Int 9; V.Int 90 ]);
  check_bool "version bumped" true (R.version rel > v0);
  Catalog.reset_index_stats cat;
  let after = Catalog.index cat rel [ 0 ] in
  Alcotest.(check (pair int int)) "stale entry rebuilt as a miss" (0, 1)
    (Catalog.index_stats cat);
  check_int "rebuilt index sees the new tuple" 1
    (List.length (Test_util.index_matches after [ V.Int 9 ]));
  (* Duplicate insertion does not invalidate. *)
  let v1 = R.version rel in
  R.add rel (T.of_list [ V.Int 9; V.Int 90 ]);
  check_int "duplicate add keeps the version" v1 (R.version rel);
  ignore (Catalog.index cat rel [ 0 ]);
  check_int "and still hits" 1 (fst (Catalog.index_stats cat))

let test_cache_shared_with_copy () =
  let cat = Catalog.create () in
  let rel = fresh_rel () in
  Catalog.add cat "r" rel;
  Catalog.reset_index_stats cat;
  ignore (Catalog.index cat rel [ 0 ]);
  let copy = Catalog.copy cat in
  ignore (Catalog.index copy rel [ 0 ]);
  check_int "copy reuses the base catalog's entries" 1
    (fst (Catalog.index_stats cat))

let test_plan_exec_cache_hits () =
  (* A multi-step plan must hit the cache: with the semijoin rewrite and
     symmetric-step aliasing disabled, the two FILTER steps and the final
     step all tabulate over the *same* base relation with the same join
     positions, so only the first step pays for the index build. *)
  let cat =
    Qf_workload.Market.catalog
      { Qf_workload.Market.default with n_baskets = 120; n_items = 40; seed = 5 }
  in
  let flock = Qf_core.Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support:8 in
  let plan =
    match
      Qf_core.Apriori_gen.param_set_plan flock ~param_sets:[ [ "1" ]; [ "2" ] ]
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  Catalog.reset_index_stats cat;
  let options =
    {
      Qf_core.Plan_exec.semijoin_reduction = false;
      reuse = false;
    }
  in
  ignore (Qf_core.Plan_exec.run ~options cat plan);
  let hits, misses = Catalog.index_stats cat in
  check_bool
    (Printf.sprintf "multi-step plan hits the index cache (%d/%d)" hits misses)
    true (hits > 0)

(* {1 Tuple and value kernels} *)

let test_tuple_hash_cached () =
  let a = T.of_list [ V.Int 1; V.str "x" ] in
  let b = T.of_list [ V.Int 1; V.str "x" ] in
  check_int "equal tuples, equal hashes" (T.hash a) (T.hash b);
  check_bool "equal" true (T.equal a b);
  let c = T.append a (T.of_list [ V.Int 2 ]) in
  let d = T.of_list [ V.Int 1; V.str "x"; V.Int 2 ] in
  check_bool "append re-hashes" true (T.equal c d && T.hash c = T.hash d)

let test_value_interning () =
  let tag = "qf-intern-test-unique-string" in
  let c0 = V.interned_count () in
  let a = V.str tag in
  let c1 = V.interned_count () in
  let b = V.str tag in
  check_int "second str interns nothing new" c1 (V.interned_count ());
  check_bool "first str interned at most one" true (c1 <= c0 + 1);
  check_bool "interned values equal" true (V.equal a b)

let suite =
  [
    Alcotest.test_case "pool run_all preserves order" `Quick test_run_all_order;
    Alcotest.test_case "pool exception propagation" `Quick
      test_run_all_exception;
    Alcotest.test_case "chunks cover the range" `Quick test_chunks_cover;
    Alcotest.test_case "default pool resize" `Quick test_default_pool_resize;
    Alcotest.test_case "index cache counters" `Quick test_cache_counters;
    Alcotest.test_case "index cache invalidation on add" `Quick
      test_cache_invalidated_by_add;
    Alcotest.test_case "index cache shared with copies" `Quick
      test_cache_shared_with_copy;
    Alcotest.test_case "plan execution hits the cache" `Quick
      test_plan_exec_cache_hits;
    Alcotest.test_case "tuple hash caching" `Quick test_tuple_hash_cached;
    Alcotest.test_case "value interning" `Quick test_value_interning;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_equi_parallel;
        prop_semi_parallel;
        prop_anti_parallel;
        prop_project_parallel;
        prop_group_by_parallel;
      ]
