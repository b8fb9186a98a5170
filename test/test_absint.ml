(* Abstract interpretation (qf_analysis.Absint) and translation
   validation (qf_analysis.Validate):

   - the interval domain's lattice operations behave;
   - SOUNDNESS over the seeded corpus: for every rule of every step of
     every plan the optimizer costs, the tabulated rows never exceed the
     certified [rows_bound] of [Absint.analyze_rule];
   - the translation validator accepts every rewrite the optimizer and the
     levelwise generator produce, and REJECTS a corrupted lowering that
     drops a subgoal (fail-closed mutation test);
   - [Statistics.column_profile] stays coherent across [Catalog.copy] and
     in-place relation growth (the version-counter discipline);
   - [flockc lint --format json]'s diagnostic stream is deterministic and
     every record carries the paper-section field;
   - QF07x diagnostics fire on certifiably dead programs and stay quiet on
     live ones, and QF072 never fires on a flock that has answers. *)
open Qf_core
module Ast = Qf_datalog.Ast
module R = Qf_relational.Relation
module V = Qf_relational.Value
module Catalog = Qf_relational.Catalog
module Statistics = Qf_relational.Statistics
module Absint = Qf_analysis.Absint
module Validate = Qf_analysis.Validate
module Diag = Qf_analysis.Diagnostic
open Qf_testgen.Testgen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* {1 Interval domain} *)

let ival lo hi =
  Absint.
    { lo = Some (V.Int lo, true); hi = Some (V.Int hi, true) }

let test_interval_lattice () =
  let open Absint in
  check_bool "top is not empty" false (is_empty top);
  check_bool "meet with top is identity" true
    (meet top (ival 1 5) = ival 1 5);
  check_bool "disjoint meet is empty" true
    (is_empty (meet (ival 1 2) (ival 5 9)));
  check_bool "singleton is not empty" false (is_empty (singleton (V.Int 3)));
  check_bool "join hulls" true (join (ival 1 2) (ival 5 9) = ival 1 9);
  (* Dense order: an open interval between adjacent ints is NOT certified
     empty (soundness over the value order, not integer arithmetic). *)
  let open_13 =
    { lo = Some (V.Int 1, false); hi = Some (V.Int 3, false) }
  in
  check_bool "open (1,3) not empty" false (is_empty open_13);
  let open_12 =
    { lo = Some (V.Int 1, false); hi = Some (V.Int 2, false) }
  in
  check_bool "open (1,2) not certified empty (dense order)" false
    (is_empty open_12);
  let pinched =
    { lo = Some (V.Int 2, false); hi = Some (V.Int 2, true) }
  in
  check_bool "half-open point is empty" true (is_empty pinched)

(* {1 Soundness: tabulated rows <= certified rows_bound} *)

let corpus_seeds = List.init 100 Fun.id

(* Every rule of every step of every plan the optimizer costs, against a
   catalog holding the earlier steps' outputs as the executor binds them:
   the rule's certified [rows_bound] is at least the size of its
   tabulation.  The corpus must hold rules over earlier steps' outputs,
   or the property would not test the plans' later steps. *)
let test_rows_bound_sound () =
  let over_steps = ref 0 in
  List.iter
    (fun seed ->
      let rel, threshold = instance ~seed gen_basket_instance in
      let cat = catalog_of rel in
      let flock = pair_flock threshold in
      List.iter
        (fun (c : Optimizer.choice) ->
          let work = Catalog.copy cat in
          List.iter
            (fun (s : Plan.step) ->
              List.iter
                (fun (r : Ast.rule) ->
                  if
                    List.exists
                      (fun (a : Ast.atom) -> not (Catalog.mem cat a.Ast.pred))
                      (Ast.positive_atoms r)
                  then incr over_steps;
                  let bound = (Absint.analyze_rule work r).Absint.rows_bound
                  and rows = R.cardinal (Qf_datalog.Eval.tabulate work r) in
                  if not (float_of_int rows <= bound) then
                    Alcotest.failf
                      "seed %d plan %s step %s: %d tabulated rows exceed \
                       rows_bound %g"
                      seed
                      (Explain.plan_summary c.Optimizer.plan)
                      s.Plan.name rows bound)
                s.Plan.query;
              let out, _, _, _ =
                Qf_datalog.Eval.filter_query work s.Plan.query
                  ~keys:(List.map (fun p -> "$" ^ p) s.Plan.params)
                  ~func:
                    (Filter.to_aggregate flock.Flock.filter
                       ~head_columns:
                         (Qf_datalog.Eval.head_columns (List.hd s.Plan.query)))
                  ~threshold:flock.Flock.filter.Filter.threshold
              in
              Catalog.add work s.Plan.name out)
            (Plan.all_steps c.Optimizer.plan))
        (Optimizer.enumerate cat flock))
    corpus_seeds;
  check_bool "the corpus has rules over earlier steps" true (!over_steps > 0)

(* The certified row bound is taken along [Eval]'s join order: on the
   tie between [s(Y)] and [r(X,Y,"3")] (10 each), [r(X,Y,"3")] first
   bounds the rows by 10 and the then fully bound [s(Y)] by one match
   each.  [s(Y)] first would give 10 x 10 = 100. *)
let test_rows_bound_eval_order () =
  let cat = Test_util.tie_catalog () in
  let rule = Test_util.tie_rule in
  let report = Absint.analyze_rule cat rule in
  Alcotest.(check (float 1e-9)) "rows_bound" 10. report.Absint.rows_bound;
  let rows = R.cardinal (Qf_datalog.Eval.tabulate cat rule) in
  check_int "tabulated rows" 10 rows;
  check_bool "rows_bound >= tabulated rows" true
    (report.Absint.rows_bound >= float_of_int rows)

(* {1 Translation validation} *)

(* Every rewrite the system actually performs is proved, not trusted:
   enumerate ALL the optimizer's costed alternatives and the levelwise
   generator's plan, and run the validator over each. *)
let test_validator_accepts_rewrites () =
  List.iter
    (fun seed ->
      let rel, threshold = instance ~seed gen_basket_instance in
      let cat = catalog_of rel in
      let flock = pair_flock threshold in
      List.iter
        (fun (c : Optimizer.choice) ->
          match Validate.verify c.Optimizer.plan with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "seed %d: validator rejected a legal plan (%s): %s"
              seed
              (Explain.plan_summary c.Optimizer.plan)
              e)
        (Optimizer.enumerate cat flock))
    corpus_seeds;
  let _, levelwise = Apriori_gen.levelwise_basket ~pred:"baskets" ~k:3 ~support:2 in
  check_bool "levelwise k=3 plan validates" true
    (Validate.verify levelwise = Ok ())

(* Fail-closed: corrupt the lowering by dropping a positive subgoal from
   the final step.  The result can only grow, so the completeness
   obligation (final <= flock) must fail. *)
let test_mutation_dropped_subgoal_rejected () =
  let flock = pair_flock 2 in
  let plan =
    match Apriori_gen.singleton_plan flock with
    | Ok p -> p
    | Error e -> Alcotest.failf "singleton_plan: %s" e
  in
  let drop_first_baskets (r : Ast.rule) =
    let dropped = ref false in
    let body =
      List.filter
        (function
          | Ast.Pos a when (not !dropped) && String.equal a.Ast.pred "baskets"
            ->
            dropped := true;
            false
          | _ -> true)
        r.Ast.body
    in
    check_bool "mutation found a subgoal to drop" true !dropped;
    { r with Ast.body }
  in
  let corrupted_query =
    match plan.Plan.final.Plan.query with
    | r :: rest -> drop_first_baskets r :: rest
    | [] -> Alcotest.fail "empty final query"
  in
  let final = Plan.step ~name:plan.Plan.final.Plan.name corrupted_query in
  match Validate.check ~flock ~steps:plan.Plan.steps ~final with
  | Ok () ->
    Alcotest.fail "validator accepted a lowering that dropped a subgoal"
  | Error e ->
    check_bool "error names the containment failure" true
      (String.length e > 0)

(* And the symmetric corruption: an extra restricting subgoal on an
   auxiliary step shrinks its output, breaking the upper-bound
   obligation. *)
let test_mutation_restricted_step_rejected () =
  let flock = pair_flock 2 in
  let plan =
    match Apriori_gen.singleton_plan flock with
    | Ok p -> p
    | Error e -> Alcotest.failf "singleton_plan: %s" e
  in
  match plan.Plan.steps with
  | [] -> Alcotest.fail "singleton plan has no auxiliary steps"
  | s :: rest ->
    let restrict (r : Ast.rule) =
      (* Restrict the parameter to a single constant: the step's output
         can only shrink, so it no longer over-approximates. *)
      let param =
        match s.Plan.params with
        | p :: _ -> p
        | [] -> Alcotest.fail "auxiliary step without parameters"
      in
      { r with Ast.body = r.Ast.body @ [ Ast.Cmp (Ast.Param param, Ast.Eq, Ast.Const (V.Int 1)) ] }
    in
    let corrupted = Plan.step ~name:s.Plan.name (List.map restrict s.Plan.query) in
    (match
       Validate.check ~flock ~steps:(corrupted :: rest) ~final:plan.Plan.final
     with
    | Ok () ->
      Alcotest.fail "validator accepted an over-restricted auxiliary step"
    | Error _ -> ())

(* {1 Statistics: column profiles and the version-counter discipline} *)

let test_column_profile_coherence () =
  let rel =
    R.of_values [ "BID"; "Item" ]
      [
        [ V.Int 1; V.Str "beer" ];
        [ V.Int 1; V.Str "chips" ];
        [ V.Int 2; V.Str "beer" ];
      ]
  in
  let cat = Catalog.create () in
  Catalog.add cat "baskets" rel;
  let prof () = Statistics.column_profile (Catalog.stats cat "baskets") "BID" in
  let p0 = prof () in
  check_int "ndv" 2 p0.Statistics.ndv;
  check_bool "min" true (p0.Statistics.min_value = Some (V.Int 1));
  check_bool "max" true (p0.Statistics.max_value = Some (V.Int 2));
  check_int "max_frequency" 2 p0.Statistics.max_frequency;
  (* The copy shares the cache but revalidates by (id, version): replacing
     the copy's relation must not disturb the original's profile. *)
  let copy = Catalog.copy cat in
  Catalog.add copy "baskets"
    (R.of_values [ "BID"; "Item" ] [ [ V.Int 9; V.Str "relish" ] ]);
  let pc = Statistics.column_profile (Catalog.stats copy "baskets") "BID" in
  check_bool "copy sees its own relation" true
    (pc.Statistics.min_value = Some (V.Int 9));
  let p1 = prof () in
  check_bool "original unchanged by the copy's rebinding" true
    (p1.Statistics.min_value = Some (V.Int 1) && p1.Statistics.ndv = 2);
  (* In-place growth bumps the relation's version; the cached statistics
     must be recomputed, not served stale. *)
  R.add rel (Qf_relational.Tuple.of_list [ V.Int 7; V.Str "ketchup" ]);
  let p2 = prof () in
  check_int "ndv after in-place add" 3 p2.Statistics.ndv;
  check_bool "max after in-place add" true
    (p2.Statistics.max_value = Some (V.Int 7))

(* {1 Deterministic machine-readable diagnostics} *)

let test_lint_json_deterministic () =
  let src =
    "QUERY:\nanswer(B) :- baskets(B,$1) AND B > 100\n\nFILTER:\nCOUNT(answer.B) >= 2\n"
  in
  let rel, _ = instance ~seed:5 gen_basket_instance in
  let catalog = catalog_of rel in
  let diags () =
    let base = Qf_analysis.Lint.lint ~catalog src in
    let absint =
      match Parse.program_located src with
      | Ok lp -> Absint.check_program ~catalog lp
      | Error _ -> []
    in
    Diag.sort (base @ absint)
  in
  let d1 = diags () and d2 = diags () in
  check_string "two runs render identically"
    (Diag.render_json ~file:"t.flock" d1)
    (Diag.render_json ~file:"t.flock" d2);
  (* Sorting is canonical: a reversed input stream sorts back to the same
     rendering. *)
  check_string "order is canonical under permutation"
    (Diag.render_json ~file:"t.flock" d1)
    (Diag.render_json ~file:"t.flock" (Diag.sort (List.rev d1)));
  (* Every record carries the paper-section field. *)
  List.iter
    (fun (d : Diag.t) ->
      let j = Diag.to_json d in
      check_bool "record has a section field" true
        (let re = "\"section\":" in
         let rec find i =
           i + String.length re <= String.length j
           && (String.sub j i (String.length re) = re || find (i + 1))
         in
         find 0))
    d1

(* {1 QF07x: fires when certifiable, quiet when not} *)

let located src =
  match Parse.program_located src with
  | Ok lp -> lp
  | Error (e, _) -> Alcotest.failf "parse: %s" e

let test_qf07x_codes () =
  let rel, _ = instance ~seed:11 gen_basket_instance in
  let catalog = catalog_of rel in
  let codes src =
    Diag.distinct_codes (Absint.check_program ~catalog (located src))
  in
  let has c src = List.mem c (codes src) in
  check_bool "unsat comparison -> QF070" true
    (has "QF070"
       "QUERY:\nanswer(B) :- baskets(B,$1) AND B > 100\n\nFILTER:\nCOUNT(answer.B) >= 2\n");
  check_bool "impossible threshold -> QF072" true
    (has "QF072"
       "QUERY:\nanswer(B) :- baskets(B,$1)\n\nFILTER:\nCOUNT(answer.B) >= 100000\n");
  (* Items are drawn from [1, 6], so a live program stays undiagnosed. *)
  check_bool "live program is quiet" true
    ([] = codes
       "QUERY:\nanswer(B) :- baskets(B,$1)\n\nFILTER:\nCOUNT(answer.B) >= 1\n");
  (* SUM over the (non-negative) BID column is certified monotone; the
     flip side, a negative summand, is covered by the golden fixture. *)
  check_bool "non-negative SUM is quiet" true
    ([] = codes
       "QUERY:\nanswer(B) :- baskets(B,$1)\n\nFILTER:\nSUM(answer.B) >= 2\n")

(* A random flock over the tiny catalogs: a safe rule under a COUNT, or
   a SUM, MAX or MIN of one of its head variables, with a threshold from
   0 to 5.  QF072 certifies the flock's result empty on the catalog, so
   it may fire only when [Direct.run] is empty.  The corpus must hold
   QF072 verdicts, or the property would test nothing. *)
let gen_filtered_rule =
  QCheck.Gen.(
    let* rule = gen_safe_rule in
    let* catalog = gen_tiny_catalog in
    let columns =
      List.filter_map
        (function Ast.Var v -> Some v | Ast.Param _ | Ast.Const _ -> None)
        rule.Ast.head.Ast.args
    in
    let* agg =
      oneof
        (return Filter.Count
        :: List.map
             (fun f -> map f (oneofl columns))
             (if columns = [] then []
              else
                [
                  (fun c -> Filter.Sum c);
                  (fun c -> Filter.Max c);
                  (fun c -> Filter.Min c);
                ]))
    in
    let* threshold = int_range 0 5 in
    return (rule, catalog, { Filter.agg; threshold = float_of_int threshold }))

let test_qf072_sound () =
  let verdicts = ref 0 in
  for seed = 0 to 1999 do
    let rule, catalog, filter = instance ~seed gen_filtered_rule in
    match Flock.make [ rule ] filter with
    | Error _ -> ()  (* no parameter: not a flock *)
    | Ok flock ->
      let src = Flock.to_string flock in
      let codes =
        Diag.distinct_codes (Absint.check_program ~catalog (located src))
      in
      if List.mem "QF072" codes then begin
        incr verdicts;
        let answers = R.cardinal (Direct.run catalog flock) in
        if answers > 0 then
          Alcotest.failf "seed %d: QF072 on a flock with %d answers:\n%s"
            seed answers src
      end
  done;
  check_bool "the corpus has QF072 verdicts" true (!verdicts > 0)

let test_monotonicity_certificates () =
  let rel, _ = instance ~seed:11 gen_basket_instance in
  let catalog = catalog_of rel in
  let flock_of src = (Result.get_ok (Parse.program src)).Parse.flock in
  (match
     Absint.monotonicity catalog
       (flock_of
          "QUERY:\nanswer(B) :- baskets(B,$1)\n\nFILTER:\nSUM(answer.B) >= 2\n")
   with
  | Absint.Monotone_sum_certified _ -> ()
  | _ -> Alcotest.fail "expected a certified-monotone SUM");
  let neg = Catalog.create () in
  Catalog.add neg "temps"
    (R.of_values [ "City"; "T" ]
       [ [ V.Str "oslo"; V.Int (-8) ]; [ V.Str "oslo"; V.Int 3 ] ]);
  match
    Absint.monotonicity neg
      (flock_of "QUERY:\nanswer(T) :- temps($1,T)\n\nFILTER:\nSUM(answer.T) >= 2\n")
  with
  | Absint.Unverified_sum (_, Some (V.Int -8)) -> ()
  | _ -> Alcotest.fail "expected an unverified SUM with witness -8"

let suite =
  [
    Alcotest.test_case "interval lattice operations" `Quick
      test_interval_lattice;
    Alcotest.test_case "100-seed corpus: tabulated rows <= rows_bound" `Quick
      test_rows_bound_sound;
    Alcotest.test_case "rows_bound along Eval's join order" `Quick
      test_rows_bound_eval_order;
    Alcotest.test_case "validator accepts every optimizer rewrite" `Quick
      test_validator_accepts_rewrites;
    Alcotest.test_case "mutation: dropped final subgoal is rejected" `Quick
      test_mutation_dropped_subgoal_rejected;
    Alcotest.test_case "mutation: over-restricted step is rejected" `Quick
      test_mutation_restricted_step_rejected;
    Alcotest.test_case "column profiles cohere across copy and growth" `Quick
      test_column_profile_coherence;
    Alcotest.test_case "lint --json output is deterministic" `Quick
      test_lint_json_deterministic;
    Alcotest.test_case "QF07x diagnostics fire exactly when certifiable"
      `Quick test_qf07x_codes;
    Alcotest.test_case "QF072 fires only on flocks with no answers" `Quick
      test_qf072_sound;
    Alcotest.test_case "SUM monotonicity certificates" `Quick
      test_monotonicity_certificates;
  ]
