(* The observability subsystem and the metric invariants it must uphold:

   - disabled (the default) means nothing is recorded;
   - spans form a well-nested forest (parents started first and enclose
     their children in time);
   - every FILTER-step span satisfies rows_out <= groups <= rows_in and
     carries a pruning ratio in [0,1];
   - the deterministic metrics (span cardinalities, a-priori and
     index-cache counters) repeat exactly from run to run;
   - [Explain.profile] pairs observed numbers with the cost model's
     estimates and agrees with the executor's own report. *)

module Obs = Qf_obs.Obs
module R = Qf_relational.Relation
open Qf_core
open Qf_testgen.Testgen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Run [f] with observability on and a clean collector; always restores
   the previous enabled state and clears the collector afterwards so no
   other suite sees stale state. *)
let with_obs f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled was)
    f

let attr name (s : Obs.span) = List.assoc_opt name s.Obs.attrs

(* {1 The collector itself} *)

let test_disabled_records_nothing () =
  Obs.set_enabled false;
  Obs.reset ();
  let v = Obs.with_span "ghost" (fun () -> Obs.count "ghost.counter" 1; 42) in
  check_int "the thunk still runs" 42 v;
  let r = Obs.report () in
  check_int "no spans" 0 (List.length r.Obs.spans);
  check_int "no counters" 0 (List.length r.Obs.counters)

let test_span_nesting_and_metrics () =
  let r =
    with_obs (fun () ->
        Obs.with_span "outer" (fun () ->
            Obs.set_attr "k" (Obs.Int 1);
            Obs.with_span "inner" (fun () -> Obs.count "c" 2);
            Obs.with_span "inner" (fun () -> Obs.count "c" 3));
        Obs.report ())
  in
  (match r.Obs.spans with
  | [ outer; inner1; inner2 ] ->
    Alcotest.(check string) "outer first (start order)" "outer" outer.Obs.name;
    check_bool "outer is a root" true (outer.Obs.parent = None);
    check_bool "inners point at outer" true
      (inner1.Obs.parent = Some outer.Obs.id
      && inner2.Obs.parent = Some outer.Obs.id);
    check_bool "outer kept its attribute" true
      (attr "k" outer = Some (Obs.Int 1));
    Alcotest.(check string) "inner name" "inner" inner1.Obs.name
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans));
  check_bool "counter accumulated" true (List.assoc "c" r.Obs.counters = 2 + 3)

let test_report_renderers_are_stable () =
  let render () =
    with_obs (fun () ->
        Obs.with_span "a" (fun () ->
            Obs.set_attr "rows" (Obs.Int 7);
            Obs.with_span "b" (fun () -> ()));
        Obs.count "z.counter" 1;
        Obs.count "a.counter" 2;
        let r = Obs.report () in
        Obs.render_text ~redact_timings:true r,
        Obs.render_json ~redact_timings:true r)
  in
  let t1, j1 = render () and t2, j2 = render () in
  Alcotest.(check string) "redacted text is byte-stable" t1 t2;
  Alcotest.(check string) "redacted JSON is byte-stable" j1 j2;
  (* Counters render sorted by name: a.counter before z.counter. *)
  let find sub s =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some i
      else go (i + 1)
    in
    go 0
  in
  let before sub1 sub2 s =
    match find sub1 s, find sub2 s with
    | Some i, Some j -> i < j
    | _ -> false
  in
  check_bool "counters sorted by name" true
    (before "a.counter" "z.counter" t1 && before "a.counter" "z.counter" j1)

(* {1 Span-tree well-nestedness on real executions} *)

let spans_of_execution seed =
  with_obs (fun () ->
      let rel, threshold = instance ~seed gen_basket_instance in
      let cat = catalog_of rel in
      let flock = pair_flock threshold in
      ignore (Plan_exec.run cat (Optimizer.optimize cat flock));
      ignore (Direct.run cat flock);
      (match Dynamic.run cat flock with Ok _ | Error _ -> ());
      (Obs.report ()).Obs.spans)

let test_span_tree_well_nested () =
  List.iter
    (fun seed ->
      let spans = spans_of_execution seed in
      check_bool "some spans recorded" true (spans <> []);
      let by_id = Hashtbl.create 64 in
      List.iter (fun (s : Obs.span) -> Hashtbl.replace by_id s.Obs.id s) spans;
      let eps = 1e-3 in
      List.iter
        (fun (s : Obs.span) ->
          check_bool "span has a stop time" true (s.Obs.stop_s >= s.Obs.start_s);
          match s.Obs.parent with
          | None -> ()
          | Some pid -> (
            match Hashtbl.find_opt by_id pid with
            | None ->
              Alcotest.failf "seed %d: span %d has unknown parent %d" seed
                s.Obs.id pid
            | Some p ->
              check_bool "parent started first" true (p.Obs.id < s.Obs.id);
              check_bool "parent encloses child start" true
                (p.Obs.start_s -. eps <= s.Obs.start_s);
              check_bool "parent encloses child stop" true
                (s.Obs.stop_s <= p.Obs.stop_s +. eps)))
        spans)
    [ 1; 2; 3; 11; 42 ]

(* {1 FILTER-step metric invariants (QCheck)} *)

let filter_step_invariants (s : Obs.span) =
  match attr "memo" s with
  | Some (Obs.Str "hit") ->
    (* A memo hit: no tabulation happened, only a stored output. *)
    attr "rows_out" s <> None
  | _ -> (
    match
      attr "rows_in" s, attr "groups" s, attr "rows_out" s,
      attr "pruning_ratio" s
    with
    | Some (Obs.Int ri), Some (Obs.Int g), Some (Obs.Int ro),
      Some (Obs.Float pr) ->
      0 <= ro && ro <= g && g <= ri && pr >= 0. && pr <= 1.
    | _ -> false)

let prop_filter_step_metrics =
  QCheck.Test.make
    ~name:"filter.step spans: rows_out <= groups <= rows_in, ratio in [0,1]"
    ~count:60 arb_basket_instance (fun (rel, threshold) ->
      let cat = catalog_of rel in
      let flock = pair_flock threshold in
      let spans =
        with_obs (fun () ->
            (match Apriori_gen.singleton_plan flock with
            | Ok p -> ignore (Plan_exec.run cat p)
            | Error e -> failwith e);
            (Obs.report ()).Obs.spans)
      in
      let steps =
        List.filter (fun (s : Obs.span) -> s.Obs.name = "filter.step") spans
      in
      steps <> [] && List.for_all filter_step_invariants steps)

(* {1 Repeatability of the deterministic metrics} *)

(* The signature of an execution on a fresh catalog: every span's (name,
   attributes) plus all counters.  Gauges are excluded wholesale. *)
let deterministic_signature seed =
  with_obs (fun () ->
      let rel, threshold = instance ~seed gen_basket_instance in
      let cat = catalog_of rel in
      let flock = pair_flock threshold in
      ignore (Plan_exec.run cat (Optimizer.optimize cat flock));
      ignore (Direct.run cat flock);
      let r = Obs.report () in
      let spans =
        List.map (fun (s : Obs.span) -> s.Obs.name, s.Obs.attrs) r.Obs.spans
      in
      spans, r.Obs.counters)

let test_metrics_repeat () =
  List.iter
    (fun seed ->
      let reference = deterministic_signature seed in
      check_bool
        (Printf.sprintf "seed %d: signature of a second run" seed)
        true
        (deterministic_signature seed = reference))
    [ 0; 5; 9; 23 ]

(* {1 Explain.profile consistency} *)

let test_profile_matches_execution () =
  let rel, threshold = instance ~seed:3 gen_basket_instance in
  let cat = catalog_of rel in
  let flock = pair_flock threshold in
  let plan = Optimizer.optimize cat flock in
  let p = Explain.profile cat plan in
  check_bool "profiling restores the disabled state" true (not (Obs.enabled ()));
  check_int "one profile row per plan step"
    (List.length (Plan.all_steps plan))
    (List.length p.Explain.steps);
  check_int "result rows = direct evaluation"
    (R.cardinal (Direct.run cat flock))
    p.Explain.result_rows;
  List.iter
    (fun (s : Explain.step_profile) ->
      check_bool
        (Printf.sprintf "step %s: rows_out <= groups <= rows_in" s.Explain.name)
        true
        (s.Explain.rows_out <= s.Explain.groups
        && s.Explain.groups <= s.Explain.rows_in);
      check_bool
        (Printf.sprintf "step %s: estimates present on a stored catalog"
           s.Explain.name)
        true
        (s.Explain.est_rows <> None && s.Explain.est_groups <> None))
    p.Explain.steps;
  (* Deterministic renderers: two profiled runs of the same plan render
     identically once timings are redacted.  A fresh catalog keeps the
     index-cache hit/miss counters comparable (the first run warms the
     original catalog's cache). *)
  let p2 = Explain.profile (catalog_of rel) plan in
  Alcotest.(check string)
    "redacted text profile is stable"
    (Explain.profile_text ~redact_timings:true p)
    (Explain.profile_text ~redact_timings:true p2);
  Alcotest.(check string)
    "redacted JSON profile is stable"
    (Explain.profile_json ~redact_timings:true p)
    (Explain.profile_json ~redact_timings:true p2)

let test_symmetric_class_is_one_span () =
  (* A two-parameter basket flock's singleton plan computes one class
     step, [ok_1] with [ok_1($1)] and [ok_1($2)]: one filter.step span
     for the class, one for the final step, and none for an [ok_2]. *)
  let rel, _ = instance ~seed:12 gen_basket_instance in
  let cat = catalog_of rel in
  let flock = pair_flock 1 in
  match Apriori_gen.singleton_plan flock with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    let spans =
      with_obs (fun () ->
          ignore (Plan_exec.run cat plan);
          (Obs.report ()).Obs.spans)
    in
    let steps =
      List.filter (fun (s : Obs.span) -> s.Obs.name = "filter.step") spans
    in
    Alcotest.(check (list string))
      "one filter.step span per computed step" [ "ok_1"; "result" ]
      (List.map
         (fun s ->
           match attr "step" s with
           | Some (Obs.Str name) -> name
           | _ -> Alcotest.fail "filter.step span without a step name")
         steps);
    check_bool "the class step tabulates" true
      (List.for_all (fun s -> attr "rows_in" s <> None) steps)

(* {1 Binding-extension spans} *)

let extend_spans f =
  with_obs (fun () ->
      f ();
      List.filter
        (fun (s : Obs.span) -> s.Obs.name = "eval.extend")
        (Obs.report ()).Obs.spans)

let int_attr name s =
  match attr name s with
  | Some (Obs.Int n) -> n
  | _ -> Alcotest.failf "eval.extend span without an int %s" name

let test_extend_spans () =
  let cat = Qf_relational.Catalog.create () in
  let edges = [ 1, 2; 2, 3; 3, 4; 1, 3; 4, 4 ] in
  let edge =
    R.of_values [ "X"; "Y" ]
      (List.map (fun (x, y) -> Qf_relational.Value.[ Int x; Int y ]) edges)
  in
  Qf_relational.Catalog.add cat "edge" edge;
  let rule =
    match
      Qf_datalog.Parser.parse_rule
        "answer(X,Z) :- edge(X,Y) AND edge(Y,Z) AND X < Z"
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let spans =
    extend_spans (fun () -> ignore (Qf_datalog.Eval.tabulate cat rule))
  in
  let shape s =
    List.map
      (fun k -> int_attr k s)
      [ "rows_in"; "candidates"; "rows_out"; "filtered" ]
  in
  (* The second subgoal would find five two-step paths.  X < Z bounds its
     walk over chains ordered by Z descending: from X = 4 the walk stops
     before Z = 4, so the path 4-4-4 is never a candidate and nothing is
     left for a fused filter to drop. *)
  Alcotest.(check (list (list int)))
    "one span per subgoal: rows_in, candidates, rows_out, filtered"
    [ [ 1; 5; 5; 0 ]; [ 5; 4; 4; 0 ] ]
    (List.map shape spans);
  (* A walk from edge (X,Y) stops exactly when its bucket, which it
     shares with every Y' colliding with Y, holds a row (Y',Z) with
     Z <= X: always from X = 4, and otherwise as the dictionary codes,
     assigned in the order values were first seen in the process, make
     keys collide. *)
  let mask = (Qf_relational.Index.build edge [ 0 ]).Qf_relational.Index.mask in
  let bucket y =
    Qf_relational.Chunkrel.hash_codes
      [| Qf_relational.Dict.encode (Qf_relational.Value.Int y) |]
    land mask
  in
  let stops =
    List.length
      (List.filter
         (fun (x, y) ->
           List.exists (fun (y', z) -> bucket y' = bucket y && z <= x) edges)
         edges)
  in
  Alcotest.(check (list int))
    "stopped walks" [ 0; stops ]
    (List.map (int_attr "stopped") spans);
  (* On the basket corpus, every span accounts for its rows, and the
     $1 < $2 bound at least stops the walks at the pairs with $1 = $2. *)
  List.iter
    (fun seed ->
      let rel, threshold = instance ~seed gen_basket_instance in
      let cat = catalog_of rel in
      let flock = pair_flock threshold in
      let spans =
        extend_spans (fun () ->
            ignore (Plan_exec.run cat (Optimizer.optimize cat flock));
            ignore (Direct.run cat flock))
      in
      check_bool (Printf.sprintf "seed %d: spans recorded" seed) true
        (spans <> []);
      List.iter
        (fun s ->
          check_bool
            (Printf.sprintf "seed %d: rows_out + filtered <= candidates" seed)
            true
            (int_attr "rows_out" s + int_attr "filtered" s
            <= int_attr "candidates" s))
        spans;
      check_bool
        (Printf.sprintf "seed %d: the $1 < $2 bound stopped walks" seed)
        true
        (List.exists (fun s -> int_attr "stopped" s > 0) spans))
    [ 0; 5; 9 ]

(* Every candidate is a stored tuple matched by one input row, so a
   span never reports more candidates than rows_in times the relation's
   size, nor more rows out (or fused-filter drops) than candidates. *)
let prop_extend_span_metrics =
  QCheck.Test.make
    ~name:"extend spans: candidates <= rows_in * relation size" ~count:60
    arb_basket_instance (fun (rel, _) ->
      let cat = catalog_of rel in
      let spans =
        extend_spans (fun () ->
            ignore
              (Test_util.tabulate cat
                 "answer(B,I,J) :- baskets(B,I) AND baskets(B,J) AND I < J"))
      in
      List.length spans = 2
      && List.for_all
           (fun s ->
             let candidates = int_attr "candidates" s in
             candidates <= int_attr "rows_in" s * R.cardinal rel
             && int_attr "rows_out" s + int_attr "filtered" s <= candidates)
           spans)

let suite =
  [
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "span nesting and metric accumulation" `Quick
      test_span_nesting_and_metrics;
    Alcotest.test_case "redacted renderers are byte-stable" `Quick
      test_report_renderers_are_stable;
    Alcotest.test_case "span trees are well-nested on real runs" `Quick
      test_span_tree_well_nested;
    Alcotest.test_case "deterministic metrics repeat across runs" `Slow
      test_metrics_repeat;
    Alcotest.test_case "Explain.profile agrees with execution" `Quick
      test_profile_matches_execution;
    Alcotest.test_case "a symmetric class is one filter.step span" `Quick
      test_symmetric_class_is_one_span;
    Alcotest.test_case "eval.extend spans account for fused filters" `Quick
      test_extend_spans;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_filter_step_metrics; prop_extend_span_metrics ]
