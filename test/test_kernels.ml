(* Kernel correctness against list specifications.

   Every relational kernel runs over dictionary-encoded columns; each
   must compute exactly the result *set* that a direct list-based
   definition of the operator gives on the relation's sorted tuples
   ({!Spec} below — nested loops over [Relation.to_sorted_list], no
   index, no codes, no partitioning).  The QCheck properties compare the
   two on random inputs skewed to a tiny value universe (the aggregation
   properties also with the grouping pass forced to spill); deterministic
   units pin the classic edge cases (empty input, all-duplicate rows,
   single-column relations, [Int 1] vs [Real 1.0]).

   The corpus check at the bottom replays the differential suite's 100
   seeded basket instances, every executor checked against naive
   generate-and-test — the full-stack analogue of the per-kernel
   properties. *)

module R = Qf_relational.Relation
module V = Qf_relational.Value
module Tuple = Qf_relational.Tuple
module Schema = Qf_relational.Schema
module Aggregate = Qf_relational.Aggregate
open Qf_core
open Qf_testgen.Testgen

(* {1 The list specification} *)

module Spec = struct
  let rows = R.to_sorted_list
  let distinct = List.sort_uniq Tuple.compare
  let pos rel col = Schema.position (R.schema rel) col
  let get rel col tup = Tuple.get tup (pos rel col)
  let key rel cols tup = Tuple.of_list (List.map (fun c -> get rel c tup) cols)
  let select rel pred = List.filter pred (rows rel)
  let project rel cols = distinct (List.map (key rel cols) (rows rel))

  let joins a b pairs ta tb =
    List.for_all (fun (ca, cb) -> V.equal (get a ca ta) (get b cb tb)) pairs

  (* [a]'s columns, then [b]'s columns that are not join targets. *)
  let equi a b pairs =
    let residual =
      List.filter
        (fun c -> not (List.exists (fun (_, cb) -> cb = c) pairs))
        (Schema.columns (R.schema b))
    in
    distinct
      (List.concat_map
         (fun ta ->
           List.filter_map
             (fun tb ->
               if joins a b pairs ta tb then
                 Some
                   (Tuple.of_list
                      (Tuple.to_list ta @ List.map (fun c -> get b c tb) residual))
               else None)
             (rows b))
         (rows a))

  let semi a b pairs =
    List.filter (fun ta -> List.exists (joins a b pairs ta) (rows b)) (rows a)

  let anti a b pairs =
    List.filter
      (fun ta -> not (List.exists (joins a b pairs ta) (rows b)))
      (rows a)

  let number v = Option.get (V.to_float v)

  let aggregate rel func group =
    let pick better col =
      List.fold_left
        (fun acc tup ->
          let v = get rel col tup in
          if better (V.compare v acc) then v else acc)
        (get rel col (List.hd group))
        group
    in
    match (func : Aggregate.func) with
    | Count -> V.Real (float_of_int (List.length group))
    | Sum col ->
      V.Real
        (List.fold_left (fun acc tup -> acc +. number (get rel col tup)) 0. group)
    | Min col -> pick (fun c -> c < 0) col
    | Max col -> pick (fun c -> c > 0) col

  (* One [(key, aggregate)] pair per distinct key. *)
  let groups rel ~keys ~func =
    List.map
      (fun k ->
        let group =
          List.filter (fun tup -> Tuple.equal (key rel keys tup) k) (rows rel)
        in
        k, aggregate rel func group)
      (project rel keys)

  (* A non-numeric aggregate (MIN/MAX of a string) never passes. *)
  let group_filter rel ~keys ~func ~threshold =
    List.filter_map
      (fun (k, v) ->
        match V.to_float v with
        | Some x when x >= threshold -> Some k
        | Some _ | None -> None)
      (groups rel ~keys ~func)
end

(* Group-by output as sorted tuples: key columns plus the aggregate. *)
let group_tuples groups =
  Spec.distinct
    (List.map (fun (key, v) -> Tuple.of_list (Tuple.to_list key @ [ v ])) groups)

let pp_tuples = Format.pp_print_list Tuple.pp

(* [got] is a kernel's output (sorted, duplicates kept), [want] the
   spec's. *)
let check_rows ~fail name got want =
  if not (List.equal Tuple.equal got want) then
    fail
      (Format.asprintf
         "%s: kernel disagrees with the list spec@.kernel:@.%a@.spec:@.%a" name
         pp_tuples got pp_tuples want)

let prop_agrees name got want =
  check_rows ~fail:QCheck.Test.fail_report name got want;
  true

let unit_agrees name got want = check_rows ~fail:Alcotest.fail name got want

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

(* {1 Joins}

   A join is a rule body: the binding extension probes [b]'s index on
   the shared variable (semi: and projects [C] away; anti: through the
   negation of [b]'s key column). *)

let join_catalog a b =
  let cat = Qf_relational.Catalog.create () in
  Qf_relational.Catalog.add cat "a" a;
  Qf_relational.Catalog.add cat "b" b;
  if Schema.mem (R.schema b) "B" then
    Qf_relational.Catalog.add cat "bkeys" (R.project b [ "B" ]);
  cat

let join_rules =
  [
    "equi", "answer(A,B,C) :- a(A,B) AND b(B,C)", Spec.equi;
    "semi", "answer(A,B) :- a(A,B) AND b(B,C)", Spec.semi;
    "anti", "answer(A,B) :- a(A,B) AND NOT bkeys(B)", Spec.anti;
  ]

let join_prop (op_name, text, spec) =
  QCheck.Test.make ~count:150 ~name:(op_name ^ ": = list spec") arb_join_pair
    (fun (a, b) ->
      prop_agrees op_name
        (R.to_sorted_list (Test_util.tabulate (join_catalog a b) text))
        (spec a b [ "B", "B" ]))

(* {1 Selection and projection} *)

(* A selection is a comparison fused into the extension of its subgoal. *)
let select_prop =
  QCheck.Test.make ~count:150 ~name:"select: = list spec" arb_rel3 (fun rel ->
      let cat = Qf_relational.Catalog.create () in
      Qf_relational.Catalog.add cat "r" rel;
      prop_agrees "select"
        (R.to_sorted_list
           (Test_util.tabulate cat "answer(A,B,C) :- r(A,B,C) AND A < C"))
        (Spec.select rel (fun tup ->
             V.compare (Tuple.get tup 0) (Tuple.get tup 2) < 0)))

let project_prop =
  QCheck.Test.make ~count:150 ~name:"project: = list spec" arb_rel3 (fun rel ->
      prop_agrees "project"
        (R.to_sorted_list (R.project rel [ "B"; "A" ]))
        (Spec.project rel [ "B"; "A" ]))

let project_single_prop =
  QCheck.Test.make ~count:150 ~name:"project to one column: = list spec"
    arb_rel3 (fun rel ->
      prop_agrees "project1"
        (R.to_sorted_list (R.project rel [ "C" ]))
        (Spec.project rel [ "C" ]))

(* {1 Aggregation}

   The aggregation inputs add a column [S] mixing integers and strings,
   so MIN and MAX meet non-numeric values.  Every property also runs its
   call a second time with the grouping pass forced to spill. *)

let agg_columns = [ "A"; "B"; "C"; "S" ]

let mixed s = if s mod 2 = 0 then V.Int s else V.Str (string_of_int s)

let arb_agg_rel =
  QCheck.make ~print:pp_relation
    QCheck.Gen.(
      let value = int_range 0 4 in
      let* rows = list_size (int_range 0 30) (quad value value value value) in
      return
        (R.of_values agg_columns
           (List.map (fun (a, b, c, s) -> [ V.Int a; V.Int b; V.Int c; mixed s ]) rows)))

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
          Aggregate.Min "S";
          Aggregate.Max "S";
        ])

(* [rel] plus sixteen rows whose keys lie outside the generated
   universe, so no single spill run can receive every row. *)
let with_ballast rel =
  R.of_values agg_columns
    (List.map Tuple.to_list (R.to_list rel)
    @ List.init 16 (fun i -> [ V.Int (10 + i); V.Int (10 + i); V.Int i; mixed i ]))

(* The input [f] reads and [f]'s result on it.  Spilled, the input is
   [with_ballast rel] and the governor's budget is one byte short of the
   grouping pass's charge (twice the input's [approx_bytes]), so the
   pass must spill; the property fails if it did not. *)
let run_agg ~spill rel f =
  if not spill then rel, f rel
  else begin
    let module Governor = Qf_governor.Governor in
    let rel = with_ballast rel in
    let g = Governor.create ~mem_budget:((2 * R.approx_bytes rel) - 1) () in
    let got = Governor.with_ctx g (fun () -> f rel) in
    if (Governor.stats g).spill_partitions = 0 then
      QCheck.Test.fail_report "the grouping pass did not spill";
    rel, got
  end

let spill_name ~spill name = if spill then name ^ " (spilled)" else name

let group_by_agrees ~spill name rel ~keys ~func =
  let name = spill_name ~spill name in
  let rel, groups =
    run_agg ~spill rel (fun rel -> Aggregate.group_by rel ~keys ~func)
  in
  prop_agrees name
       (List.sort Tuple.compare
          (List.map (fun (key, v) -> Tuple.of_list (Tuple.to_list key @ [ v ])) groups))
       (group_tuples (Spec.groups rel ~keys ~func))

let both_paths prop = List.for_all (fun spill -> prop ~spill) [ false; true ]

let group_by_prop =
  QCheck.Test.make ~count:150 ~name:"group_by: = list spec"
    (QCheck.pair arb_agg_rel arb_func) (fun (rel, func) ->
      both_paths (group_by_agrees "group_by" rel ~keys:[ "A"; "B" ] ~func))

let group_by_single_key_prop =
  (* Exercises the dense code->group fast path (single key column). *)
  QCheck.Test.make ~count:150 ~name:"group_by one key: = list spec"
    (QCheck.pair arb_agg_rel arb_func) (fun (rel, func) ->
      both_paths (group_by_agrees "group_by1" rel ~keys:[ "B" ] ~func))

let group_filter_prop =
  QCheck.Test.make ~count:150 ~name:"group_filter: = list spec"
    (QCheck.triple arb_agg_rel arb_func (QCheck.int_range 1 5))
    (fun (rel, func, threshold) ->
      let threshold = float_of_int threshold in
      both_paths (fun ~spill ->
          let rel, out =
            run_agg ~spill rel (fun rel ->
                Aggregate.group_filter rel ~keys:[ "A"; "B" ] ~func ~threshold)
          in
          prop_agrees
            (spill_name ~spill "group_filter")
            (R.to_sorted_list out)
            (Spec.group_filter rel ~keys:[ "A"; "B" ] ~func ~threshold)))

let group_filter_report_prop =
  QCheck.Test.make ~count:150
    ~name:"group_filter_report candidates = distinct keys"
    (QCheck.pair arb_agg_rel (QCheck.int_range 1 5)) (fun (rel, threshold) ->
      both_paths (fun ~spill ->
          let rel, (_, candidates) =
            run_agg ~spill rel (fun rel ->
                Aggregate.group_filter_report rel ~keys:[ "A"; "B" ]
                  ~func:Aggregate.Count ~threshold:(float_of_int threshold))
          in
          candidates = List.length (Spec.project rel [ "A"; "B" ])))

(* {1 Edge-case units} *)

let check_join name text a b want =
  unit_agrees name
    (R.to_sorted_list (Test_util.tabulate (join_catalog a b) text))
    want

let check_project name rel cols =
  unit_agrees name (R.to_sorted_list (R.project rel cols)) (Spec.project rel cols)

let check_group_filter name rel ~keys =
  unit_agrees name
    (R.to_sorted_list
       (Aggregate.group_filter rel ~keys ~func:Aggregate.Count ~threshold:1.))
    (Spec.group_filter rel ~keys ~func:Aggregate.Count ~threshold:1.)

let test_empty_inputs () =
  let empty cols = R.of_values cols [] in
  let one = R.of_values [ "A"; "B" ] [ [ V.Int 1; V.Int 2 ] ] in
  check_join "equi on empty" "answer(A,B,C) :- a(A,B) AND b(B,C)"
    (empty [ "A"; "B" ]) (empty [ "B"; "C" ])
    (Spec.equi (empty [ "A"; "B" ]) (empty [ "B"; "C" ]) [ "B", "B" ]);
  let probe = R.of_values [ "B"; "C" ] [ [ V.Int 1; V.Int 2 ] ] in
  check_join "semi empty probe" "answer(A,B) :- a(A,B) AND b(B,C)"
    (empty [ "A"; "B" ]) probe
    (Spec.semi (empty [ "A"; "B" ]) probe [ "B", "B" ]);
  check_join "anti empty build" "answer(A,B) :- a(A,B) AND NOT bkeys(B)" one
    (empty [ "B"; "C" ])
    (Spec.anti one (empty [ "B"; "C" ]) [ "B", "B" ]);
  check_join "select on empty" "answer(A,B) :- a(A,B) AND A < B"
    (empty [ "A"; "B" ]) (empty [ "B"; "C" ]) [];
  check_project "project on empty" (empty [ "A"; "B" ]) [ "A" ];
  check_group_filter "group_filter on empty" (empty [ "A"; "B" ]) ~keys:[ "A" ]

let test_all_duplicates () =
  (* Relations are sets, so "all duplicates" means every projected row
     collapses to one: the dedup paths must collapse them. *)
  let rel =
    R.of_values [ "A"; "B" ]
      (List.init 20 (fun i -> [ V.Int (i mod 2); V.Int 7 ]))
  in
  check_project "project all-dup column" rel [ "B" ];
  unit_agrees "group_by all-dup key"
    (group_tuples (Aggregate.group_by rel ~keys:[ "B" ] ~func:Aggregate.Count))
    (group_tuples (Spec.groups rel ~keys:[ "B" ] ~func:Aggregate.Count));
  check_join "self equi on all-dup key" "answer(A,B,A2) :- a(A,B) AND b(A2,B)"
    rel rel (Spec.equi rel rel [ "B", "B" ])

let test_single_column () =
  let rel = R.of_values [ "A" ] (List.init 9 (fun i -> [ V.Int (i mod 3) ])) in
  check_project "single-column project" rel [ "A" ];
  check_join "single-column semi self" "answer(A) :- a(A) AND b(A)" rel rel
    (Spec.semi rel rel [ "A", "A" ]);
  check_group_filter "single-column group_filter" rel ~keys:[ "A" ]

(* Values of different types never share a dictionary code: Int 1 and
   Real 1.0 must stay distinct. *)
let test_mixed_types () =
  let rel =
    R.of_values [ "A"; "B" ]
      [
        [ V.Int 1; V.Str "x" ];
        [ V.Real 1.0; V.Str "x" ];
        [ V.Int 1; V.Str "y" ];
      ]
  in
  check_project "mixed-type project" rel [ "A" ];
  Alcotest.(check int) "Int 1 and Real 1.0 stay apart" 2
    (R.cardinal (R.project rel [ "A" ]));
  check_join "mixed-type self join" "answer(A,B,B2) :- a(A,B) AND b(A,B2)" rel
    rel (Spec.equi rel rel [ "A", "A" ])

(* {1 The full-stack corpus} *)

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

let test_corpus_agrees () =
  List.iter
    (fun seed ->
      let rel, threshold = instance ~seed gen_basket_instance in
      let flock = pair_flock threshold in
      let expected = Naive.run (catalog_of rel) flock in
      List.iter
        (fun (name, got) ->
          if not (R.equal expected got) then
            Alcotest.failf
              "seed %d: %s disagrees with naive (threshold %d)\n%s" seed name
              threshold (pp_relation rel))
        (run_executors (catalog_of rel) flock);
      (* The tabulation skips its dedupe pass when it keeps every bound
         key, trusting that environment rows are distinct; a rebuild
         through [R.add], which dedupes, must not shrink it. *)
      List.iter
        (fun rule ->
          let tab = Qf_datalog.Eval.tabulate (catalog_of rel) rule in
          let rebuilt = R.create (R.schema tab) in
          R.iter (R.add rebuilt) tab;
          if R.cardinal rebuilt <> R.cardinal tab then
            Alcotest.failf
              "seed %d: tabulation has duplicate rows (%d, %d distinct)" seed
              (R.cardinal tab) (R.cardinal rebuilt))
        flock.Flock.query)
    (List.init 100 Fun.id)

(* {1 The FILTER count against tabulate-then-group}

   [Eval.filter_query] counts a single rule's groups inside its last
   subgoal's probe loop; on every rule it must give exactly what
   tabulating and grouping give: the survivors, the number of tabulated
   rows and the number of groups.  [Dynamic.run] groups through the same
   table, so its answers must be those survivors under any config. *)

module Eval = Qf_datalog.Eval
module Ast = Qf_datalog.Ast
module Catalog = Qf_relational.Catalog
module Sip = Qf_relational.Sip

let filter_by_tabulation ~sip cat rule ~keys ~func ~threshold =
  let tab = Eval.tabulate ~sip cat rule in
  let survivors, groups =
    Aggregate.group_filter_report tab ~keys ~func ~threshold
  in
  survivors, R.cardinal tab, groups

let check_filter_count name ~sip cat rule ~keys ~func ~threshold =
  let want_out, want_rows, want_groups =
    filter_by_tabulation ~sip cat rule ~keys ~func ~threshold
  in
  let out, rows, groups =
    Eval.filter_query ~sip cat [ rule ] ~keys ~func ~threshold
  in
  if not (R.equal want_out out && rows = want_rows && groups = want_groups)
  then
    Alcotest.failf
      "%s, %a >= %g: counted %d rows, %d groups, %d survivors; tabulation \
       has %d rows, %d groups, %d survivors"
      name Aggregate.pp_func func threshold rows groups (R.cardinal out)
      want_rows want_groups (R.cardinal want_out)

(* [Dynamic.run] on the flock [rule] with [filter], under the default and
   the eager config: the [filter_query] survivors, or [Error] for a
   non-monotone filter.  [None] when [rule] makes no flock (it has no
   parameter). *)
let eager = { Dynamic.ratio_factor = 1e9; improvement_factor = 1e9 }

let check_dynamic name cat rule ~keys (filter : Filter.t) =
  match Flock.make [ rule ] filter with
  | Error _ -> ()
  | Ok flock ->
    List.iter
      (fun config ->
        match Dynamic.run ~config cat flock, Filter.is_monotone filter with
        | Ok r, true ->
          let want, _, _ =
            Eval.filter_query cat [ rule ] ~keys ~func:filter.agg
              ~threshold:filter.threshold
          in
          if not (R.equal want r.answers) then
            Alcotest.failf "%s, %a >= %g: dynamic has %d answers, FILTER %d"
              name Aggregate.pp_func filter.agg filter.threshold
              (R.cardinal r.answers) (R.cardinal want)
        | Error _, false -> ()
        | Ok _, false ->
          Alcotest.failf "%s: dynamic accepted %a" name Aggregate.pp_func
            filter.agg
        | Error e, true -> Alcotest.failf "%s: dynamic: %s" name e)
      [ Dynamic.default_config; eager ]

(* Does the last positive subgoal have filters fused into it? *)
let fuses_last cat rule =
  match List.rev (Eval.order_body cat rule) with
  | (Ast.Neg _ | Ast.Cmp _) :: _ -> true
  | _ -> false

(* Are the bound keys exactly the parameters and head variables (each
   tabulated row then counts as it comes)? *)
let covering (rule : Ast.rule) =
  let keys lits =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (a : Ast.atom) ->
           List.filter_map
             (function
               | (Ast.Var _ | Ast.Param _) as t -> Some (Ast.binding_key t)
               | Ast.Const _ -> None)
             a.args)
         lits)
  in
  let positives =
    List.filter_map (function Ast.Pos a -> Some a | _ -> None) rule.body
  in
  let params = List.map (fun p -> "$" ^ p) (Ast.rule_params rule) in
  keys positives = List.sort_uniq String.compare (keys [ rule.head ] @ params)

let test_filter_count_corpus () =
  let covered = ref 0 and deduped = ref 0 and fused = ref 0 in
  let consts = ref 0 in
  List.iter
    (fun seed ->
      let rule, cat =
        instance ~seed (QCheck.Gen.pair gen_safe_rule gen_tiny_catalog)
      in
      (* The rule as generated, and with a constant appended to its
         head. *)
      let with_const =
        {
          rule with
          Ast.head =
            {
              rule.head with
              args = rule.head.args @ [ Ast.Const (V.Int 2) ];
            };
        }
      in
      (* SIP reducers over stored columns.  Both paths get the same
         ones, so they need not be sound. *)
      let reducers =
        [
          "$a", Sip.of_column (Catalog.find cat "p") "A";
          "$b", Sip.of_column (Catalog.find cat "r") "B";
        ]
      in
      List.iter
        (fun rule ->
          if covering rule then incr covered else incr deduped;
          if fuses_last cat rule then incr fused;
          if List.exists (function Ast.Const _ -> true | _ -> false)
               rule.head.args
          then incr consts;
          let keys = List.map (fun p -> "$" ^ p) (Ast.rule_params rule) in
          let funcs =
            Aggregate.Count
            :: List.concat_map
                 (fun c -> Aggregate.[ Sum c; Min c; Max c ])
                 (Eval.head_columns rule)
          in
          let name =
            Printf.sprintf "seed %d, %s" seed
              (Qf_datalog.Pretty.rule_to_string rule)
          in
          List.iter
            (fun func ->
              List.iter
                (fun threshold ->
                  List.iter
                    (fun sip ->
                      check_filter_count name ~sip cat rule ~keys ~func
                        ~threshold)
                    [ []; reducers ];
                  check_dynamic name cat rule ~keys
                    { Filter.agg = func; threshold })
                [ 1.; 2.; 4. ])
            funcs)
        [ rule; with_const ])
    (List.init 200 Fun.id);
  Alcotest.(check bool) "covering bodies occur" true (!covered > 0);
  Alcotest.(check bool) "bodies needing a dedupe occur" true (!deduped > 0);
  Alcotest.(check bool) "filters fused into the last subgoal occur" true
    (!fused > 0);
  Alcotest.(check bool) "head constants occur" true (!consts > 0)

(* Under a finite budget the FILTER tabulates and groups, so the
   grouping pass can still spill; the answers stay the same. *)
let test_filter_count_governed () =
  let module Governor = Qf_governor.Governor in
  let spills = ref 0 in
  List.iter
    (fun seed ->
      let rel, threshold = instance ~seed gen_basket_instance in
      let flock = pair_flock threshold in
      let cat = catalog_of rel in
      let keys = Flock.result_columns flock in
      let threshold = float_of_int threshold in
      let want, _, _ =
        Eval.filter_query cat flock.Flock.query ~keys ~func:Aggregate.Count
          ~threshold
      in
      let g = Governor.create ~mem_budget:4096 () in
      let got, _, _ =
        Governor.with_ctx g (fun () ->
            Eval.filter_query cat flock.Flock.query ~keys
              ~func:Aggregate.Count ~threshold)
      in
      spills := !spills + (Governor.stats g).Governor.spill_partitions;
      if not (R.equal want got) then
        Alcotest.failf "seed %d: the governed FILTER disagrees" seed)
    (List.init 50 Fun.id);
  Alcotest.(check bool) "the 4k budget spilled" true (!spills > 0)

let suite =
  List.map QCheck_alcotest.to_alcotest
    (List.map join_prop join_rules
    @ [
      select_prop;
      project_prop;
      project_single_prop;
      group_by_prop;
      group_by_single_key_prop;
      group_filter_prop;
      group_filter_report_prop;
    ])
  @ [
      Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
      Alcotest.test_case "all-duplicate rows" `Quick test_all_duplicates;
      Alcotest.test_case "single-column relations" `Quick test_single_column;
      Alcotest.test_case "mixed value types" `Quick test_mixed_types;
      Alcotest.test_case "FILTER count = tabulate then group" `Quick
        test_filter_count_corpus;
      Alcotest.test_case "governed FILTER still spills" `Quick
        test_filter_count_governed;
      Alcotest.test_case "100-seed corpus: every executor = naive" `Quick
        test_corpus_agrees;
    ]
