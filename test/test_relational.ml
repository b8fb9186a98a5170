(* Tuples, schemas, relations, indexes: the storage layer. *)
open Qf_relational

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let t ints = Tuple.of_list (List.map (fun i -> Value.Int i) ints)

let test_tuple_compare () =
  check_int "equal" 0 (Tuple.compare (t [ 1; 2 ]) (t [ 1; 2 ]));
  check_bool "lex order" true (Tuple.compare (t [ 1; 2 ]) (t [ 1; 3 ]) < 0);
  check_bool "shorter first" true (Tuple.compare (t [ 1 ]) (t [ 1; 0 ]) < 0);
  check_bool "equal means hash equal" true
    (Tuple.hash (t [ 4; 5 ]) = Tuple.hash (t [ 4; 5 ]))

let test_tuple_get_append () =
  Alcotest.(check bool)
    "get reads by position" true
    (Value.equal (Tuple.get (t [ 7; 8 ]) 1) (Value.Int 8));
  Alcotest.(check bool)
    "append" true
    (Tuple.equal (Tuple.append (t [ 1 ]) (t [ 2; 3 ])) (t [ 1; 2; 3 ]));
  Alcotest.check_raises "get out of range"
    (Invalid_argument "index out of bounds")
    (fun () -> ignore (Tuple.get (t [ 1 ]) 5))

let test_schema_basics () =
  let s = Schema.of_list [ "A"; "B"; "C" ] in
  check_int "arity" 3 (Schema.arity s);
  check_int "position" 1 (Schema.position s "B");
  check_bool "mem" true (Schema.mem s "C");
  check_bool "not mem" false (Schema.mem s "Z");
  Alcotest.(check (option int)) "position_opt none" None (Schema.position_opt s "Z");
  check_bool "restrict keeps order given" true
    (Schema.equal (Schema.restrict s [ "C"; "A" ]) (Schema.of_list [ "C"; "A" ]))

let test_schema_duplicates () =
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Schema.of_list: duplicate column \"A\"") (fun () ->
      ignore (Schema.of_list [ "A"; "A" ]));
  Alcotest.check_raises "append collision"
    (Invalid_argument "Schema.of_list: duplicate column \"B\"") (fun () ->
      ignore (Schema.append (Schema.of_list [ "A"; "B" ]) (Schema.of_list [ "B" ])))

let test_relation_set_semantics () =
  let r = Relation.create (Schema.of_list [ "X" ]) in
  Relation.add r (t [ 1 ]);
  Relation.add r (t [ 1 ]);
  Relation.add r (t [ 2 ]);
  check_int "duplicates ignored" 2 (Relation.cardinal r);
  check_bool "mem" true (Relation.mem r (t [ 1 ]));
  check_bool "not mem" false (Relation.mem r (t [ 3 ]))

let test_relation_arity_check () =
  let r = Relation.create (Schema.of_list [ "X"; "Y" ]) in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation.add: arity mismatch (1 vs 2)") (fun () ->
      Relation.add r (t [ 1 ]))

let test_relation_project () =
  let r =
    Relation.of_values [ "X"; "Y" ]
      Value.[ [ Int 1; Int 10 ]; [ Int 2; Int 10 ]; [ Int 1; Int 20 ] ]
  in
  let p = Relation.project r [ "Y" ] in
  check_int "project dedups" 2 (Relation.cardinal p);
  check_bool "projected schema" true
    (Schema.equal (Relation.schema p) (Schema.of_list [ "Y" ]))

(* A relation wrapped around another's columnar snapshot holds the same
   set, builds its row set on demand, and leaves the shared chunk alone
   when it is later mutated. *)
let test_relation_of_chunkrel () =
  let r =
    Relation.of_values [ "X"; "Y" ]
      Value.[ [ Int 1; Str "a" ]; [ Int 2; Str "b" ] ]
  in
  let row x y = Tuple.of_list Value.[ Int x; Str y ] in
  let w = Relation.of_chunkrel (Relation.schema r) (Relation.codes r) in
  check_int "cardinal from the chunk" 2 (Relation.cardinal w);
  check_bool "equal to the source" true (Relation.equal r w);
  check_bool "mem through the lazily built table" true
    (Relation.mem w (row 2 "b"));
  let v0 = Relation.version w in
  Relation.add w (row 3 "c");
  check_int "add after wrapping" 3 (Relation.cardinal w);
  check_bool "version bumped" true (Relation.version w > v0);
  check_int "snapshot rebuilt" 3 (Relation.codes w).Chunkrel.nrows;
  check_int "source unchanged" 2 (Relation.cardinal r);
  check_int "source snapshot unchanged" 2 (Relation.codes r).Chunkrel.nrows;
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation.of_chunkrel: arity mismatch") (fun () ->
      ignore (Relation.of_chunkrel (Schema.of_list [ "X" ]) (Relation.codes r)))

(* {1 The store against a list-set model}

   Random interleavings of insertions (duplicates, and [Int 1] beside
   [Real 1.0]), membership tests (some naming a value no relation holds),
   snapshots, and re-wrapping the relation around its own snapshot, with
   the source appended to afterwards.  After every step the relation must
   hold exactly the model's set, [version] must move exactly on new rows
   and [mem] must not grow the dictionary.  At the end, every source left
   behind by a re-wrap must still hold its own set, and every snapshot
   taken must still hold its rows. *)

type op =
  | Add of Value.t list
  | Mem of Value.t list * bool  (** [true]: first value replaced by an unseen one *)
  | Snapshot
  | Rewrap of Value.t list  (** wrap, then add this row to the old source *)

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (int_range 0 3);
        map (fun i -> Value.Real (float_of_int i)) (int_range 0 3);
        map (fun i -> Value.str (String.make 1 (Char.chr (97 + i)))) (int_range 0 2);
      ])

let arb_ops =
  let row = QCheck.Gen.list_repeat 2 gen_value in
  let pp_row r = String.concat "," (List.map Value.to_string r) in
  QCheck.make
    ~print:
      (QCheck.Print.list (function
        | Add r -> "add " ^ pp_row r
        | Mem (r, unseen) ->
          Printf.sprintf "mem %s%s" (pp_row r) (if unseen then " (unseen)" else "")
        | Snapshot -> "snapshot"
        | Rewrap r -> "rewrap, source += " ^ pp_row r))
    QCheck.Gen.(
      list_size (int_range 0 60)
        (frequency
           [
             5, map (fun r -> Add r) row;
             3, map2 (fun r u -> Mem (r, u)) row bool;
             1, return Snapshot;
             1, map (fun r -> Rewrap r) row;
           ]))

let unseen_counter = ref 0

let unseen () =
  incr unseen_counter;
  Value.Str (Printf.sprintf "relation-model-unseen-%d" !unseen_counter)

(* The rows of a snapshot, copied out. *)
let frozen (c : Chunkrel.t) =
  Array.map (fun col -> Array.sub col 0 c.Chunkrel.nrows) c.Chunkrel.cols

let prop_store_matches_model =
  QCheck.Test.make ~count:300 ~name:"relation store = list-set model" arb_ops
    (fun ops ->
      let schema = Schema.of_list [ "X"; "Y" ] in
      let in_model m row = List.exists (Tuple.equal row) m in
      let rel = ref (Relation.create schema) and model = ref [] in
      let snapshots = ref [] and retired = ref [] in
      let holds_model r m =
        Relation.equal r (Relation.of_list schema m)
        && List.equal Tuple.equal (Relation.to_sorted_list r)
             (List.sort Tuple.compare m)
      in
      let step op =
        match op with
        | Add vs ->
          let row = Tuple.of_list vs in
          let fresh = not (in_model !model row) in
          let v0 = Relation.version !rel in
          Relation.add !rel row;
          if fresh then model := row :: !model;
          Relation.version !rel = v0 + if fresh then 1 else 0
        | Mem (vs, with_unseen) ->
          let vs = if with_unseen then unseen () :: List.tl vs else vs in
          let row = Tuple.of_list vs in
          let size = Dict.size () in
          let got = Relation.mem !rel row in
          got = in_model !model row && Dict.size () = size
        | Snapshot ->
          let c = Relation.codes !rel in
          snapshots := (c, frozen c) :: !snapshots;
          c.Chunkrel.nrows = Relation.cardinal !rel
        | Rewrap vs ->
          let src = !rel and row = Tuple.of_list vs in
          let w = Relation.of_chunkrel schema (Relation.codes src) in
          Relation.add src row;
          retired :=
            (src, if in_model !model row then !model else row :: !model)
            :: !retired;
          rel := w;
          Relation.version w = 0
      in
      List.for_all
        (fun op ->
          step op
          && Relation.cardinal !rel = List.length !model
          && List.for_all (Relation.mem !rel) !model)
        ops
      && List.for_all (fun (r, m) -> holds_model r m) ((!rel, !model) :: !retired)
      && List.for_all (fun (c, rows) -> frozen c = rows) !snapshots)

let test_relation_column_values () =
  let r =
    Relation.of_values [ "X"; "Y" ]
      Value.[ [ Int 1; Str "a" ]; [ Int 2; Str "a" ]; [ Int 1; Str "b" ] ]
  in
  check_int "distinct X" 2 (List.length (Relation.column_values r "X"));
  check_int "distinct Y" 2 (List.length (Relation.column_values r "Y"))

let test_relation_equal () =
  let a = Relation.of_values [ "X" ] Value.[ [ Int 1 ]; [ Int 2 ] ] in
  let b = Relation.of_values [ "Z" ] Value.[ [ Int 2 ]; [ Int 1 ] ] in
  check_bool "order-insensitive, schema-name-insensitive" true
    (Relation.equal a b);
  Relation.add b (t [ 3 ]);
  check_bool "cardinality differs" false (Relation.equal a b)

let test_index () =
  let r =
    Relation.of_values [ "X"; "Y" ]
      Value.[ [ Int 1; Int 10 ]; [ Int 1; Int 20 ]; [ Int 2; Int 30 ] ]
  in
  let idx = Index.build r [ 0 ] in
  let matches idx key = List.length (Test_util.index_matches idx key) in
  check_int "key count" 2
    (Array.length
       (Chunkrel.distinct_rows idx.Index.key_cols idx.Index.chunk.Chunkrel.nrows));
  check_int "group size" 2 (matches idx Value.[ Int 1 ]);
  check_int "missing key" 0 (matches idx Value.[ Int 9 ]);
  (* Empty column list: everything shares the empty key (cross product). *)
  let all = Index.build r [] in
  check_int "empty key groups all" 3 (matches all [])

let test_statistics () =
  let r =
    Relation.of_values [ "X"; "Y" ]
      Value.[ [ Int 1; Int 10 ]; [ Int 1; Int 20 ]; [ Int 2; Int 30 ] ]
  in
  let s = Statistics.of_relation r in
  check_int "cardinality" 3 (Statistics.cardinality s);
  check_int "distinct X" 2 (Statistics.distinct s "X");
  check_int "distinct Y" 3 (Statistics.distinct s "Y")

let test_statistics_frequencies () =
  let r =
    Relation.of_values [ "Item" ]
      Value.[ [ Int 1 ]; [ Int 2 ]; [ Int 3 ] ]
  in
  (* Duplicate rows collapse (set semantics), so build frequencies via a
     two-column relation where the first column varies. *)
  let r2 =
    Relation.of_values [ "BID"; "Item" ]
      Value.[
        [ Int 1; Int 7 ]; [ Int 2; Int 7 ]; [ Int 3; Int 7 ];
        [ Int 4; Int 8 ]; [ Int 5; Int 8 ];
        [ Int 6; Int 9 ];
      ]
  in
  let s = Statistics.of_relation r2 in
  Alcotest.(check (array int))
    "descending frequencies" [| 3; 2; 1 |]
    (Statistics.frequencies s "Item");
  check_int "count_at_least 1" 3 (Statistics.count_at_least s "Item" 1);
  check_int "count_at_least 2" 2 (Statistics.count_at_least s "Item" 2);
  check_int "count_at_least 3" 1 (Statistics.count_at_least s "Item" 3);
  check_int "count_at_least 4" 0 (Statistics.count_at_least s "Item" 4);
  let s1 = Statistics.of_relation r in
  check_int "all singletons" 3 (Statistics.count_at_least s1 "Item" 1);
  check_int "none at 2" 0 (Statistics.count_at_least s1 "Item" 2)

(* {1 The catalog's index cache} *)

let fresh_rel () =
  Relation.of_values [ "X"; "Y" ]
    Value.[ [ Int 1; Int 10 ]; [ Int 1; Int 20 ]; [ Int 2; Int 30 ] ]

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
  let v0 = Relation.version rel in
  let before = Catalog.index cat rel [ 0 ] in
  check_int "stale key absent" 0
    (List.length (Test_util.index_matches before [ Value.Int 9 ]));
  Relation.add rel (Tuple.of_list [ Value.Int 9; Value.Int 90 ]);
  check_bool "version bumped" true (Relation.version rel > v0);
  Catalog.reset_index_stats cat;
  let after = Catalog.index cat rel [ 0 ] in
  Alcotest.(check (pair int int)) "stale entry rebuilt as a miss" (0, 1)
    (Catalog.index_stats cat);
  check_int "rebuilt index sees the new tuple" 1
    (List.length (Test_util.index_matches after [ Value.Int 9 ]));
  (* Duplicate insertion does not invalidate. *)
  let v1 = Relation.version rel in
  Relation.add rel (Tuple.of_list [ Value.Int 9; Value.Int 90 ]);
  check_int "duplicate add keeps the version" v1 (Relation.version rel);
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

(* An ordered and an unordered index of one (relation, positions) are
   two entries: each hits on reuse, both go stale on [Relation.add] and
   after a rebinding [Catalog.add], and the ordered one is charged its
   order arrays against the byte budget. *)
let test_cache_ordered_entries () =
  let cat = Catalog.create () in
  let rel = fresh_rel () in
  Catalog.add cat "r" rel;
  let order = 1, Index.Descending in
  Catalog.reset_index_stats cat;
  let plain = Catalog.index cat rel [ 0 ] in
  let ordered = Catalog.index ~order cat rel [ 0 ] in
  Alcotest.(check (pair int int)) "two entries, two misses" (0, 2)
    (Catalog.index_stats cat);
  check_bool "only the ordered entry is ranked" true
    (plain.Index.order = None && ordered.Index.order <> None);
  check_bool "each is reused" true
    (Catalog.index cat rel [ 0 ] == plain
    && Catalog.index ~order cat rel [ 0 ] == ordered);
  Alcotest.(check (pair int int)) "reuse counts a hit each" (2, 2)
    (Catalog.index_stats cat);
  ignore (Catalog.index ~order:(1, Index.Ascending) cat rel [ 0 ]);
  check_int "the other direction is an entry of its own" 3
    (snd (Catalog.index_stats cat));
  Relation.add rel (Tuple.of_list [ Value.Int 1; Value.Int 5 ]);
  let plain' = Catalog.index cat rel [ 0 ] in
  let ordered' = Catalog.index ~order cat rel [ 0 ] in
  Alcotest.(check (pair int int)) "Relation.add: both rebuilt as misses" (2, 5)
    (Catalog.index_stats cat);
  check_int "the rebuilt ordered index sees the new tuple" 3
    (List.length (Test_util.index_matches ordered' [ Value.Int 1 ]));
  let rebound = fresh_rel () in
  Catalog.add cat "r" rebound;
  check_bool "a rebinding: both rebuilt" true
    (Catalog.index cat (Catalog.find cat "r") [ 0 ] != plain'
    && Catalog.index ~order cat (Catalog.find cat "r") [ 0 ] != ordered');
  Alcotest.(check (pair int int)) "as two misses" (2, 7) (Catalog.index_stats cat);
  (* A budget that holds both entries of [rel] keeps them; one byte less
     evicts the least recently used, here the ordered one, which the
     budget counts with its order arrays. *)
  check_bool "order arrays are counted" true
    (Index.approx_bytes ordered' > Index.approx_bytes plain');
  let cat = Catalog.create () in
  let both = Index.approx_bytes ordered' + Index.approx_bytes plain' in
  Catalog.set_index_budget cat both;
  ignore (Catalog.index ~order cat rel [ 0 ]);
  ignore (Catalog.index cat rel [ 0 ]);
  check_int "both fit" 0 (Catalog.index_evictions cat);
  Catalog.set_index_budget cat (both - 1);
  check_int "one byte less evicts one" 1 (Catalog.index_evictions cat);
  Catalog.reset_index_stats cat;
  ignore (Catalog.index cat rel [ 0 ]);
  ignore (Catalog.index ~order cat rel [ 0 ]);
  Alcotest.(check (pair int int)) "the unordered entry stayed" (1, 1)
    (Catalog.index_stats cat)

let test_stats_shared_with_copy () =
  let cat = Catalog.create () in
  let rel = fresh_rel () in
  Catalog.add cat "r" rel;
  let copy = Catalog.copy cat in
  let through_copy = Catalog.stats copy "r" in
  check_bool "the base reads the profile computed through the copy" true
    (Catalog.stats cat "r" == through_copy);
  check_bool "and so does a second copy" true
    (Catalog.stats (Catalog.copy cat) "r" == through_copy);
  (* Rebinding a name in a copy: each catalog still profiles the relation
     it binds, by the (id, version) check. *)
  Catalog.add copy "r" (Relation.of_values [ "X"; "Y" ] Value.[ [ Int 5; Int 6 ] ]);
  check_int "the copy reports its relation" 1
    (Statistics.cardinality (Catalog.stats copy "r"));
  check_int "the base still reports its own" 3
    (Statistics.cardinality (Catalog.stats cat "r"))

let test_plan_exec_cache_hits () =
  (* A multi-step plan must hit the cache: with the semijoin rewrite and
     symmetric-step aliasing disabled, the two FILTER steps and the final
     step all tabulate over the *same* base relation with the same join
     positions, so only the first step pays for the index build. *)
  let cat =
    Qf_workload.Market.catalog
      {
        Qf_workload.Market.default with
        n_baskets = 120;
        n_items = 40;
        seed = 5;
      }
  in
  let flock =
    Qf_core.Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support:8
  in
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
  let a = Tuple.of_list [ Value.Int 1; Value.str "x" ] in
  let b = Tuple.of_list [ Value.Int 1; Value.str "x" ] in
  check_int "equal tuples, equal hashes" (Tuple.hash a) (Tuple.hash b);
  check_bool "equal" true (Tuple.equal a b);
  let c = Tuple.append a (Tuple.of_list [ Value.Int 2 ]) in
  let d = Tuple.of_list [ Value.Int 1; Value.str "x"; Value.Int 2 ] in
  check_bool "append re-hashes" true
    (Tuple.equal c d && Tuple.hash c = Tuple.hash d)

let test_value_interning () =
  let tag = "qf-intern-test-unique-string" in
  let c0 = Value.interned_count () in
  let a = Value.str tag in
  let c1 = Value.interned_count () in
  let b = Value.str tag in
  check_int "second str interns nothing new" c1 (Value.interned_count ());
  check_bool "first str interned at most one" true (c1 <= c0 + 1);
  check_bool "interned values equal" true (Value.equal a b)

let suite =
  [
    Alcotest.test_case "statistics frequencies" `Quick
      test_statistics_frequencies;
    Alcotest.test_case "tuple compare/hash" `Quick test_tuple_compare;
    Alcotest.test_case "tuple get/append" `Quick test_tuple_get_append;
    Alcotest.test_case "schema basics" `Quick test_schema_basics;
    Alcotest.test_case "schema duplicate detection" `Quick test_schema_duplicates;
    Alcotest.test_case "relation set semantics" `Quick test_relation_set_semantics;
    Alcotest.test_case "relation arity check" `Quick test_relation_arity_check;
    Alcotest.test_case "relation project dedups" `Quick test_relation_project;
    Alcotest.test_case "relation of_chunkrel/codes round trip" `Quick
      test_relation_of_chunkrel;
    Alcotest.test_case "relation column_values" `Quick test_relation_column_values;
    Alcotest.test_case "relation equal" `Quick test_relation_equal;
    QCheck_alcotest.to_alcotest prop_store_matches_model;
    Alcotest.test_case "hash index" `Quick test_index;
    Alcotest.test_case "statistics" `Quick test_statistics;
    Alcotest.test_case "index cache counters" `Quick test_cache_counters;
    Alcotest.test_case "index cache invalidation on add" `Quick
      test_cache_invalidated_by_add;
    Alcotest.test_case "index cache: ordered and unordered entries" `Quick
      test_cache_ordered_entries;
    Alcotest.test_case "index cache shared with copies" `Quick
      test_cache_shared_with_copy;
    Alcotest.test_case "catalog copies share statistics" `Quick
      test_stats_shared_with_copy;
    Alcotest.test_case "plan execution hits the cache" `Quick
      test_plan_exec_cache_hits;
    Alcotest.test_case "tuple hash caching" `Quick test_tuple_hash_cached;
    Alcotest.test_case "value interning" `Quick test_value_interning;
  ]
