(* Row/columnar kernel equivalence.

   Every relational kernel dispatches on {!Layout.mode} between the
   row-at-a-time engine and the dictionary-encoded columnar engine; both
   must compute exactly the same result *set* on every input.  The QCheck
   properties below run each kernel under both layouts (rebuilding the
   inputs per arm, so each arm pays its own boundary conversion) and
   require [Relation.equal]; deterministic units pin the classic edge
   cases (empty input, all-duplicate rows, single-column relations).

   The corpus check at the bottom replays the differential suite's 100
   seeded basket instances with the layout forced each way and the pool
   forced to 1 and 4 domains — the full-stack analogue of the per-kernel
   properties. *)

module R = Qf_relational.Relation
module V = Qf_relational.Value
module Tuple = Qf_relational.Tuple
module Layout = Qf_relational.Layout
module Join = Qf_relational.Join
module Aggregate = Qf_relational.Aggregate
module Catalog = Qf_relational.Catalog
module Pool = Qf_exec_pool.Pool
open Qf_core
open Qf_testgen.Testgen

(* Run [f] (a kernel application over freshly built inputs) under both
   layouts and check the results agree.  [f] receives nothing but must
   rebuild its inputs internally so each arm converts at its own
   boundary. *)
let both_layouts name f =
  let row = Test_util.with_layout Layout.Row f in
  let col = Test_util.with_layout Layout.Columnar f in
  if not (R.equal row col) then
    QCheck.Test.fail_reportf "%s: row/columnar results differ\nrow:\n%a\ncolumnar:\n%a"
      name R.pp row R.pp col;
  true

(* {1 Generators} *)

(* Two joinable relations sharing a [B] column, skewed to a tiny value
   universe so duplicate keys, empty join results and all-duplicate
   columns all occur naturally. *)
let gen_join_pair =
  QCheck.Gen.(
    let* a = gen_small_relation ~columns:[ "A"; "B" ] ~max_value:4 ~max_rows:24 in
    let* b = gen_small_relation ~columns:[ "B"; "C" ] ~max_value:4 ~max_rows:24 in
    return (a, b))

let arb_join_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "a:\n%s\nb:\n%s" (pp_relation a) (pp_relation b))
    gen_join_pair

let arb_rel3 =
  QCheck.make ~print:pp_relation
    (gen_small_relation ~columns:[ "A"; "B"; "C" ] ~max_value:4 ~max_rows:30)

(* Rebuild a relation from its sorted values so each layout arm starts
   from a fresh, unconverted instance. *)
let values_of rel =
  List.map Tuple.to_list (R.to_sorted_list rel)

let rebuild columns rel = R.of_values columns (values_of rel)

(* {1 Join kernels} *)

let join_prop op op_name =
  QCheck.Test.make ~count:150 ~name:(op_name ^ ": row = columnar")
    arb_join_pair (fun (a, b) ->
      both_layouts op_name (fun () ->
          let a = rebuild [ "A"; "B" ] a and b = rebuild [ "B"; "C" ] b in
          op a b [ "B", "B" ]))

(* The forced-parallel variant drives the chunked fan-out paths even on
   tiny inputs ([par_threshold:0] at the call sites below); the pool
   comes from the environment (the second runtest pass forces
   QF_DOMAINS=4). *)
let join_prop_par op op_name =
  QCheck.Test.make ~count:75 ~name:(op_name ^ " (forced parallel): row = columnar")
    arb_join_pair (fun (a, b) ->
      both_layouts op_name (fun () ->
          let a = rebuild [ "A"; "B" ] a and b = rebuild [ "B"; "C" ] b in
          op a b [ "B", "B" ]))

(* {1 Select / project} *)

let select_pred tup =
  match Tuple.get tup 0 with V.Int i -> i mod 2 = 0 | _ -> true

let select_prop =
  QCheck.Test.make ~count:150 ~name:"select: row = columnar" arb_rel3
    (fun rel ->
      both_layouts "select" (fun () ->
          R.select (rebuild [ "A"; "B"; "C" ] rel) select_pred))

let project_prop =
  QCheck.Test.make ~count:150 ~name:"project: row = columnar" arb_rel3
    (fun rel ->
      both_layouts "project" (fun () ->
          R.project (rebuild [ "A"; "B"; "C" ] rel) [ "B"; "A" ]))

let project_single_prop =
  QCheck.Test.make ~count:150 ~name:"project to one column: row = columnar"
    arb_rel3 (fun rel ->
      both_layouts "project1" (fun () ->
          R.project ~par_threshold:0 (rebuild [ "A"; "B"; "C" ] rel) [ "C" ]))

(* {1 Aggregation} *)

let arb_func =
  QCheck.make
    ~print:(fun f -> Format.asprintf "%a" Aggregate.pp_func f)
    QCheck.Gen.(
      oneofl
        [
          Aggregate.Count;
          Aggregate.Sum "C";
          Aggregate.Min "C";
          Aggregate.Max "C";
        ])

let groups_to_rel keys rel ~func =
  (* Encode group_by output as a relation so R.equal can compare it:
     key columns plus the aggregate value. *)
  let groups = Aggregate.group_by rel ~keys ~func in
  R.of_values
    (keys @ [ "agg" ])
    (List.map
       (fun (key, v) -> Tuple.to_list key @ [ v ])
       groups)

let group_by_prop =
  QCheck.Test.make ~count:150 ~name:"group_by: row = columnar"
    (QCheck.pair arb_rel3 arb_func) (fun (rel, func) ->
      both_layouts "group_by" (fun () ->
          groups_to_rel [ "A"; "B" ] (rebuild [ "A"; "B"; "C" ] rel) ~func))

let group_by_single_key_prop =
  (* Exercises the dense code->group fast path (single key column). *)
  QCheck.Test.make ~count:150 ~name:"group_by one key: row = columnar"
    (QCheck.pair arb_rel3 arb_func) (fun (rel, func) ->
      both_layouts "group_by1" (fun () ->
          groups_to_rel [ "B" ] (rebuild [ "A"; "B"; "C" ] rel) ~func))

let group_filter_prop =
  QCheck.Test.make ~count:150 ~name:"group_filter: row = columnar"
    (QCheck.triple arb_rel3 arb_func (QCheck.int_range 1 5))
    (fun (rel, func, threshold) ->
      both_layouts "group_filter" (fun () ->
          Aggregate.group_filter
            (rebuild [ "A"; "B"; "C" ] rel)
            ~keys:[ "A"; "B" ] ~func
            ~threshold:(float_of_int threshold)))

let group_filter_report_prop =
  QCheck.Test.make ~count:150
    ~name:"group_filter_report candidates = |project keys|"
    (QCheck.pair arb_rel3 (QCheck.int_range 1 5)) (fun (rel, threshold) ->
      List.for_all
        (fun mode ->
          Test_util.with_layout mode (fun () ->
              let rel = rebuild [ "A"; "B"; "C" ] rel in
              let _, candidates =
                Aggregate.group_filter_report rel ~keys:[ "A"; "B" ]
                  ~func:Aggregate.Count
                  ~threshold:(float_of_int threshold)
              in
              candidates = R.cardinal (R.project rel [ "A"; "B" ])))
        [ Layout.Row; Layout.Columnar ])

(* {1 Edge-case units} *)

let check_equal name expected actual =
  if not (R.equal expected actual) then
    Alcotest.failf "%s: row/columnar results differ" name

let unit_both name f =
  let row = Test_util.with_layout Layout.Row f in
  let col = Test_util.with_layout Layout.Columnar f in
  check_equal name row col

let test_empty_inputs () =
  let empty cols = R.of_values cols [] in
  unit_both "equi on empty" (fun () ->
      Join.equi (empty [ "A"; "B" ]) (empty [ "B"; "C" ]) [ "B", "B" ]);
  unit_both "semi empty probe" (fun () ->
      Join.semi (empty [ "A"; "B" ])
        (R.of_values [ "B"; "C" ] [ [ V.Int 1; V.Int 2 ] ])
        [ "B", "B" ]);
  unit_both "anti empty build" (fun () ->
      Join.anti
        (R.of_values [ "A"; "B" ] [ [ V.Int 1; V.Int 2 ] ])
        (empty [ "B"; "C" ]) [ "B", "B" ]);
  unit_both "select on empty" (fun () ->
      R.select (empty [ "A"; "B" ]) (fun _ -> true));
  unit_both "project on empty" (fun () -> R.project (empty [ "A"; "B" ]) [ "A" ]);
  unit_both "group_filter on empty" (fun () ->
      Aggregate.group_filter (empty [ "A"; "B" ]) ~keys:[ "A" ]
        ~func:Aggregate.Count ~threshold:1.)

let test_all_duplicates () =
  (* Relations are sets, so "all duplicates" means every projected row
     collapses to one: the dedup paths must agree. *)
  let rel =
    R.of_values [ "A"; "B" ]
      (List.init 20 (fun i -> [ V.Int (i mod 2); V.Int 7 ]))
  in
  unit_both "project all-dup column" (fun () ->
      R.project (rebuild [ "A"; "B" ] rel) [ "B" ]);
  unit_both "group_by all-dup key" (fun () ->
      groups_to_rel [ "B" ] (rebuild [ "A"; "B" ] rel) ~func:Aggregate.Count);
  unit_both "self equi on all-dup key" (fun () ->
      let r = rebuild [ "A"; "B" ] rel in
      Join.equi r (rebuild [ "A"; "B" ] rel) [ "B", "A" ])

let test_single_column () =
  let rel = R.of_values [ "A" ] (List.init 9 (fun i -> [ V.Int (i mod 3) ])) in
  unit_both "single-column project" (fun () ->
      R.project (rebuild [ "A" ] rel) [ "A" ]);
  unit_both "single-column semi self" (fun () ->
      let r = rebuild [ "A" ] rel in
      Join.semi r r [ "A", "A" ]);
  unit_both "single-column group_filter" (fun () ->
      Aggregate.group_filter (rebuild [ "A" ] rel) ~keys:[ "A" ]
        ~func:Aggregate.Count ~threshold:1.)

(* Values of different types never share a dictionary code: Int 1 and
   Real 1.0 must stay distinct under both layouts. *)
let test_mixed_types () =
  let rel =
    R.of_values [ "A"; "B" ]
      [
        [ V.Int 1; V.Str "x" ];
        [ V.Real 1.0; V.Str "x" ];
        [ V.Int 1; V.Str "y" ];
      ]
  in
  unit_both "mixed-type project" (fun () ->
      R.project (rebuild [ "A"; "B" ] rel) [ "A" ]);
  unit_both "mixed-type self join" (fun () ->
      let r = rebuild [ "A"; "B" ] rel in
      Join.equi r (rebuild [ "A"; "B" ] rel) [ "A", "A" ])

(* {1 The full-stack corpus under forced layouts and pool sizes} *)

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

let test_corpus_layout_insensitive () =
  let seeds = List.init 100 Fun.id in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_size (Pool.default_size ()))
    (fun () ->
      List.iter
        (fun seed ->
          let rel, threshold = instance ~seed gen_basket_instance in
          let flock = pair_flock threshold in
          (* Reference: the row engine on a sequential pool. *)
          Pool.set_default_size 1;
          let expected =
            Test_util.with_layout Layout.Row (fun () ->
                Direct.run (catalog_of rel) flock)
          in
          List.iter
            (fun mode ->
              List.iter
                (fun domains ->
                  Pool.set_default_size domains;
                  Test_util.with_layout mode (fun () ->
                      List.iter
                        (fun (name, got) ->
                          if not (R.equal expected got) then
                            Alcotest.failf
                              "seed %d: %s under %s layout / %d domains \
                               disagrees with row direct (threshold %d)\n%s"
                              seed name (Layout.to_string mode) domains
                              threshold (pp_relation rel))
                        (run_executors (catalog_of rel) flock);
                      (* The tabulation skips its dedupe pass when it keeps
                         every bound key, trusting that environment rows
                         are distinct; a rebuild through [R.add], which
                         dedupes, must not shrink it. *)
                      List.iter
                        (fun rule ->
                          let tab =
                            Qf_datalog.Eval.tabulate (catalog_of rel) rule
                          in
                          let rebuilt = R.create (R.schema tab) in
                          R.iter (R.add rebuilt) tab;
                          if R.cardinal rebuilt <> R.cardinal tab then
                            Alcotest.failf
                              "seed %d: tabulation under %s layout / %d \
                               domains has duplicate rows (%d, %d distinct)"
                              seed (Layout.to_string mode) domains
                              (R.cardinal tab) (R.cardinal rebuilt))
                        flock.Flock.query))
                [ 1; 4 ])
            [ Layout.Row; Layout.Columnar ])
        seeds)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      join_prop (fun a b p -> Join.equi a b p) "equi";
      join_prop (fun a b p -> Join.semi a b p) "semi";
      join_prop (fun a b p -> Join.anti a b p) "anti";
      join_prop_par (fun a b p -> Join.equi ~par_threshold:0 a b p) "equi";
      join_prop_par (fun a b p -> Join.semi ~par_threshold:0 a b p) "semi";
      join_prop_par (fun a b p -> Join.anti ~par_threshold:0 a b p) "anti";
      select_prop;
      project_prop;
      project_single_prop;
      group_by_prop;
      group_by_single_key_prop;
      group_filter_prop;
      group_filter_report_prop;
    ]
  @ [
      Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
      Alcotest.test_case "all-duplicate rows" `Quick test_all_duplicates;
      Alcotest.test_case "single-column relations" `Quick test_single_column;
      Alcotest.test_case "mixed value types" `Quick test_mixed_types;
      Alcotest.test_case "100-seed corpus: layout and pool insensitive" `Quick
        test_corpus_layout_insensitive;
    ]
