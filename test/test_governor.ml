(* The resource governor: byte-accounted budgets, deadlines, cooperative
   cancellation, spill-to-disk kernels — and the deterministic
   fault-injection sweep proving that a failure at *every* counted
   fault point yields either a typed error or the correct result, never
   corruption, a poisoned catalog, or a leaked temp file. *)

module R = Qf_relational.Relation
module Schema = Qf_relational.Schema
module Tuple = Qf_relational.Tuple
module Value = Qf_relational.Value
module Catalog = Qf_relational.Catalog
module Aggregate = Qf_relational.Aggregate
module Heap_file = Qf_relational.Heap_file
module Governor = Qf_governor.Governor
module Fault = Qf_governor.Fault
open Qf_core
open Qf_testgen.Testgen

(* Spill files of THIS process left behind anywhere under the temp dir:
   the hygiene invariant is that this list is empty after every governed
   run, including every faulted one. *)
let leaked_spill_files () =
  let prefix = "qf_spill." ^ string_of_int (Unix.getpid ()) ^ "." in
  let tmp = Filename.get_temp_dir_name () in
  match Sys.readdir tmp with
  | entries ->
    Array.to_list entries
    |> List.filter (fun e -> String.starts_with ~prefix e)
    |> List.map (fun e -> Filename.concat tmp e)
  | exception Sys_error _ -> []

let assert_no_leaks context =
  match leaked_spill_files () with
  | [] -> ()
  | files ->
    (* Clean up so one failure does not cascade into every later case. *)
    List.iter
      (fun dir ->
        (try Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
         with Sys_error _ -> ());
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      files;
    Alcotest.failf "%s: leaked spill files: %s" context
      (String.concat ", " files)

(* {1 Unit tests: accounting, budget parsing, deadlines, cancellation} *)

let test_budget_of_string () =
  let check s expected =
    Alcotest.(check (option int))
      s expected (Governor.budget_of_string s)
  in
  check "4096" (Some 4096);
  check "64k" (Some 65536);
  check "64K" (Some 65536);
  check "2m" (Some (2 * 1024 * 1024));
  check "1g" (Some (1024 * 1024 * 1024));
  check "unbounded" (Some max_int);
  check "inf" (Some max_int);
  check "" None;
  check "k" None;
  check "-1" None;
  check "12x" None;
  check "lots" None

let test_charge_release_peak () =
  let g = Governor.create ~mem_budget:1000 () in
  Governor.charge g 400;
  Alcotest.(check int) "used" 400 (Governor.used g);
  Alcotest.(check bool) "fits" true (Governor.try_charge g 600);
  Alcotest.(check bool) "over" false (Governor.try_charge g 1);
  Alcotest.(check int) "used unchanged by failed charge" 1000
    (Governor.used g);
  Governor.release g 600;
  Governor.release g 400;
  Alcotest.(check int) "released" 0 (Governor.used g);
  Alcotest.(check int) "peak survives release" 1000
    (Governor.stats g).Governor.peak_bytes;
  match Governor.charge g 1001 with
  | () -> Alcotest.fail "charge over budget must raise"
  | exception Governor.Over_budget { requested; used; budget } ->
    Alcotest.(check int) "requested" 1001 requested;
    Alcotest.(check int) "used" 0 used;
    Alcotest.(check int) "budget" 1000 budget

let test_deadline () =
  let g = Governor.create ~timeout_s:0.000001 () in
  match
    Governor.with_ctx g (fun () ->
        Unix.sleepf 0.002;
        Governor.check ();
        "unreachable")
  with
  | _ -> Alcotest.fail "expired deadline must raise at the next check"
  | exception Governor.Deadline_exceeded { elapsed; timeout } ->
    Alcotest.(check bool) "elapsed past timeout" true (elapsed >= timeout)

let test_cancel () =
  let g = Governor.create () in
  match
    Governor.with_ctx g (fun () ->
        Governor.check ();
        Governor.cancel g;
        Governor.check ();
        "unreachable")
  with
  | _ -> Alcotest.fail "cancel must raise at the next check"
  | exception Governor.Cancelled -> ()

let test_ungoverned_check_is_noop () =
  Governor.check ();
  Alcotest.(check bool) "no ambient governor" true (Governor.current () = None)

(* {1 Spill kernels agree with the in-memory kernels} *)

let relation_of_rows columns rows =
  let rel = R.create (Schema.of_list columns) in
  List.iter
    (fun row ->
      R.add rel
        (Tuple.of_array (Array.of_list (List.map Value.str row))))
    rows;
  rel

let big_pair_relation n =
  relation_of_rows [ "B"; "I" ]
    (List.concat_map
       (fun b ->
         List.map
           (fun i ->
             [ Printf.sprintf "b%d" b; Printf.sprintf "i%d" ((b * 7 + i) mod 37) ])
           (List.init (1 + (b mod 5)) Fun.id))
       (List.init n Fun.id))

(* Joins are rule bodies: the binding extension charges no memory, so a
   tiny budget leaves a join's answer alone, while cancellation stops it
   at the next step boundary with a typed error. *)
let test_governed_join () =
  let cat = Catalog.create () in
  Catalog.add cat "a" (big_pair_relation 60);
  Catalog.add cat "b" (big_pair_relation 40);
  let text = "answer(B,I,C) :- a(B,I) AND b(C,I)" in
  let expected = Test_util.tabulate cat text in
  let g = Governor.create ~mem_budget:8192 () in
  let got = Governor.with_ctx g (fun () -> Test_util.tabulate cat text) in
  if not (R.equal expected got) then
    Alcotest.fail "governed join disagrees with the ungoverned one";
  let g = Governor.create () in
  Governor.cancel g;
  (match Governor.with_ctx g (fun () -> Test_util.tabulate cat text) with
  | _ -> Alcotest.fail "a cancelled join must raise"
  | exception Governor.Cancelled -> ());
  assert_no_leaks "governed join"

let test_spilled_group_by_agrees () =
  let rel = big_pair_relation 80 in
  let sort = List.sort compare in
  let expected =
    sort (Aggregate.group_by rel ~keys:[ "I" ] ~func:Aggregate.Count)
  in
  let g = Governor.create ~mem_budget:8192 () in
  let got =
    Governor.with_ctx g (fun () ->
        sort (Aggregate.group_by rel ~keys:[ "I" ] ~func:Aggregate.Count))
  in
  if got <> expected then Alcotest.fail "spilled group-by disagrees";
  Alcotest.(check bool) "group-by spilled" true
    ((Governor.stats g).Governor.spill_partitions > 0);
  assert_no_leaks "spilled group-by"

let test_spilled_group_filter_agrees () =
  let rel = big_pair_relation 80 in
  let expected =
    Aggregate.group_filter rel ~keys:[ "I" ] ~func:Aggregate.Count
      ~threshold:3.
  in
  let g = Governor.create ~mem_budget:8192 () in
  let got =
    Governor.with_ctx g (fun () ->
        Aggregate.group_filter rel ~keys:[ "I" ] ~func:Aggregate.Count
          ~threshold:3.)
  in
  if not (R.equal expected got) then
    Alcotest.fail "spilled group-filter disagrees";
  Alcotest.(check bool) "group-filter spilled" true
    ((Governor.stats g).Governor.spill_partitions > 0);
  assert_no_leaks "spilled group-filter"

(* {1 Spill runs partition the input by key}

   [map_partitions] over random relations and key subsets: the runs'
   rows are the input's, each run's rows are distinct, no key lands in
   two runs, and the runs are gone when it returns.  The input's [need]
   asks for [parts] runs; a run's own charge is its [approx_bytes],
   which a 1 MiB budget always fits. *)

let prop_map_partitions =
  let columns = [ "X"; "Y"; "Z" ] in
  QCheck.Test.make ~name:"spill runs partition the input by key" ~count:100
    (QCheck.make
       ~print:(fun (rel, keys, parts) ->
         Printf.sprintf "keys [%s], %d runs\n%s" (String.concat "; " keys)
           parts (pp_relation rel))
       QCheck.Gen.(
         let* rel = gen_small_relation ~columns ~max_value:20 ~max_rows:200 in
         let* mask = list_repeat (List.length columns) bool in
         let* parts = int_range 1 64 in
         return
           (rel, List.filteri (fun i _ -> List.nth mask i) columns, parts)))
    (fun (rel, keys, parts) ->
      let budget = 1 lsl 20 in
      let need r =
        if r == rel then parts * budget / 4 else R.approx_bytes r
      in
      let g = Governor.create ~mem_budget:budget () in
      let runs, left_behind =
        Governor.with_ctx g (fun () ->
            let runs =
              Qf_relational.Spill.map_partitions g rel ~keys ~need Fun.id
            in
            let dir = Filename.dirname (Governor.fresh_spill_path g) in
            runs, Sys.readdir dir)
      in
      assert_no_leaks "map_partitions";
      let union = R.create (R.schema rel) in
      List.iter (R.add_all union) runs;
      let distinct run =
        let chunk = R.codes run in
        Array.length
          (Qf_relational.Chunkrel.distinct_rows chunk.cols chunk.nrows)
        = R.cardinal run
      in
      let run_keys =
        List.concat_map (fun run -> R.to_list (R.project run keys)) runs
      in
      left_behind = [||]
      && List.length runs = max 2 (min 256 (parts + 1))
      && List.for_all distinct runs
      && List.fold_left (fun n run -> n + R.cardinal run) 0 runs
         = R.cardinal rel
      && R.equal union rel
      && List.length (List.sort_uniq Tuple.compare run_keys)
         = List.length run_keys)

(* A run whose charge outgrows what is left of the budget is partitioned
   again.  Forty distinct keys, a top-level need asking for the minimum
   of two runs, and a run charge of a quarter of the budget per row: no
   top-level run of more than four rows fits, so the runs [f] gets come
   from deeper levels.  One key's rows cannot be split, so eight rows of
   a single key stay over budget. *)
let test_oversize_run_resplits () =
  let budget = 1 lsl 20 in
  let split rel =
    let need r = if r == rel then 0 else R.cardinal r * budget / 4 in
    let g = Governor.create ~mem_budget:budget () in
    Governor.with_ctx g (fun () ->
        Qf_relational.Spill.map_partitions g rel ~keys:[ "X" ] ~need Fun.id)
  in
  let rel = R.of_values [ "X" ] (List.init 40 (fun i -> [ Value.Int i ])) in
  let runs = split rel in
  assert_no_leaks "re-split";
  Alcotest.(check bool) "more runs than the top level's two" true
    (List.length runs > 2);
  Alcotest.(check bool) "every run fits" true
    (List.for_all (fun r -> R.cardinal r <= 4) runs);
  let union = R.create (R.schema rel) in
  List.iter (R.add_all union) runs;
  Alcotest.(check bool) "the runs hold the input" true (R.equal union rel);
  let one_key =
    R.of_values [ "X"; "Y" ] (List.init 8 (fun i -> [ Value.Int 0; Value.Int i ]))
  in
  (match split one_key with
  | _ -> Alcotest.fail "one key's eight rows cannot fit"
  | exception Governor.Over_budget _ -> ());
  assert_no_leaks "one key over budget"

(* {1 Executors under a tiny budget agree with ungoverned direct} *)

let tiny_budget = 4096

let run_governed g f = Governor.with_ctx g f

let test_executors_agree_under_tiny_budget () =
  List.iter
    (fun seed ->
      let rel, threshold = instance ~seed gen_basket_instance in
      let cat = catalog_of rel in
      let flock = pair_flock threshold in
      let expected = Direct.run cat flock in
      let governed name f =
        let g = Governor.create ~mem_budget:tiny_budget () in
        let got = run_governed g f in
        if not (R.equal expected got) then
          Alcotest.failf "seed %d: governed %s disagrees with direct" seed
            name
      in
      governed "direct" (fun () -> Direct.run cat flock);
      governed "plan" (fun () ->
          Plan_exec.run cat (Optimizer.optimize cat flock));
      governed "dynamic" (fun () ->
          match Dynamic.run cat flock with
          | Ok r -> r.Dynamic.answers
          | Error e -> Alcotest.failf "seed %d: dynamic: %s" seed e);
      governed "naive" (fun () -> Naive.run cat flock))
    (List.init 10 (fun i -> i * 7));
  assert_no_leaks "tiny-budget executors"

(* {1 MIN/MAX over a string head column}

   A non-numeric aggregate never passes the threshold — [Naive]'s
   semantics — in every executor, in memory and spilled.  Items mix
   integers and strings, and numbers order before strings, so a group's
   MIN is often a number that passes while its MAX is a string that
   does not. *)
let test_min_max_over_strings () =
  let rel = R.create (Schema.of_list [ "B"; "I" ]) in
  for b = 0 to 39 do
    for k = 0 to b mod 4 do
      let v = ((b * 7) + k) mod 11 in
      R.add rel
        (Tuple.of_list
           [
             Value.Str (Printf.sprintf "b%d" b);
             (if v mod 3 = 0 then Value.Str (Printf.sprintf "i%d" v)
              else Value.Int v);
           ])
    done
  done;
  let cat = catalog_of rel in
  let rule =
    match
      Qf_datalog.Parser.parse_rule "answer(B,I) :- baskets(B,$1) AND baskets(B,I)"
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "parse: %s" e
  in
  List.iter
    (fun agg ->
      let flock = Flock.make_exn [ rule ] { Filter.agg; threshold = 3. } in
      let label = Format.asprintf "%a" (Filter.pp ~head:"answer") flock.filter in
      let expected = Naive.run cat flock in
      let executors =
        [
          "direct", (fun () -> Direct.run cat flock);
          "plan", (fun () -> Plan_exec.run cat (Optimizer.optimize cat flock));
          "naive", (fun () -> Naive.run cat flock);
        ]
        @
        if Filter.is_monotone flock.filter then
          [
            ( "dynamic",
              fun () ->
                match Dynamic.run cat flock with
                | Ok r -> r.Dynamic.answers
                | Error e -> Alcotest.failf "%s: dynamic: %s" label e );
          ]
        else []
      in
      List.iter
        (fun (name, run) ->
          if not (R.equal expected (run ())) then
            Alcotest.failf "%s: %s disagrees with naive" label name;
          (* Small enough that the FILTER spills, large enough for the
             run holding one item's rows. *)
          let g = Governor.create ~mem_budget:16384 () in
          if not (R.equal expected (Governor.with_ctx g run)) then
            Alcotest.failf "%s: governed %s disagrees with naive" label name;
          if name = "direct" then
            Alcotest.(check bool)
              (label ^ ": governed direct spilled")
              true
              ((Governor.stats g).Governor.spill_partitions > 0))
        executors)
    [ Filter.Min "I"; Filter.Max "I" ];
  assert_no_leaks "MIN/MAX over strings"

let test_plan_deadline_interrupts () =
  let rel, threshold = instance ~seed:3 gen_basket_instance in
  let cat = catalog_of rel in
  let flock = pair_flock threshold in
  let plan = Optimizer.optimize cat flock in
  let g = Governor.create ~timeout_s:1e-9 () in
  match Governor.with_ctx g (fun () -> Plan_exec.run cat plan) with
  | _ -> Alcotest.fail "plan under expired deadline must raise"
  | exception Governor.Deadline_exceeded _ -> ()

(* {1 The deterministic fault-injection sweep}

   Each scenario is a self-contained governed computation with a known
   expected answer.  [Fault.with_count] learns how many fault points the
   clean run crosses; the sweep then replays the scenario once per point
   with exactly that point armed.  Every replay must either produce the
   correct answer (the injection landed on a pass-through point, e.g. in
   a counting-only site) or raise a typed error — [Fault.Injected] or a
   governor fault — and must never leak a spill file or corrupt shared
   state (proven by a final clean re-run against the same catalog). *)

type scenario = {
  name : string;
  expected : check:bool -> unit;
      (* runs the computation; [check = true] compares against the known
         answer, [check = false] just exercises it *)
}

let mining_scenario name ~mode =
  let rel, threshold = instance ~seed:11 gen_basket_instance in
  let cat = catalog_of rel in
  let flock = pair_flock threshold in
  let expected = Direct.run cat flock in
  let run () =
    let g = Governor.create ~mem_budget:tiny_budget () in
    Governor.with_ctx g @@ fun () ->
    match mode with
    | `Direct -> Direct.run cat flock
    | `Plan -> Plan_exec.run cat (Optimizer.optimize cat flock)
    | `Dynamic -> (
      match Dynamic.run cat flock with
      | Ok r -> r.Dynamic.answers
      | Error e -> failwith ("dynamic: " ^ e))
  in
  {
    name;
    expected =
      (fun ~check ->
        let got = run () in
        if check && not (R.equal expected got) then
          Alcotest.failf "%s: wrong result" name);
  }

(* Storage round-trip with a 2-page buffer pool: every append risks an
   eviction flush, so the [pager.write]/[pager.read]/[heap.append] points
   all fire many times. *)
let storage_scenario =
  let rel = big_pair_relation 60 in
  let run () =
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "qf_governor_hf.%d" (Unix.getpid ()))
    in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let hf = Heap_file.create ~capacity:2 path (R.schema rel) in
        let ok =
          try
            R.iter (Heap_file.append hf) rel;
            Heap_file.flush hf;
            true
          with e ->
            Heap_file.discard hf;
            raise e
        in
        ignore ok;
        let back = Heap_file.to_relation hf in
        Heap_file.close hf;
        back)
  in
  {
    name = "storage round-trip";
    expected =
      (fun ~check ->
        let got = run () in
        if check && not (R.equal rel got) then
          Alcotest.failf "storage round-trip: wrong result");
  }

(* The spilled FILTER on its own, so the sweep arms every I/O point of
   the spill path: run creation, each row's append, and the page writes
   and reads of a run that outgrows its 4-page pool.  A page is read back
   from disk only once a run has five data pages (over 1,360 code rows of
   arity 2), and such a run charges about 175 KB, so no run under
   [tiny_budget] ever does.  This scenario has a budget of its own
   instead: one hot key's 1,400 rows fit it as a run, and with 150 more
   rows the whole input does not. *)
let spill_filter_name = "spilled group_filter_report"

let spill_filter_scenario () =
  let rel =
    relation_of_rows [ "B"; "I" ]
      (List.init 1400 (fun b -> [ Printf.sprintf "b%d" b; "hot" ])
      @ List.init 150 (fun b ->
            [ Printf.sprintf "c%d" b; Printf.sprintf "i%d" (b mod 75) ]))
  in
  let filter () =
    Aggregate.group_filter_report rel ~keys:[ "I" ] ~func:Aggregate.Count
      ~threshold:3.
  in
  let expected, expected_candidates = filter () in
  let run () =
    let g = Governor.create ~mem_budget:190_000 () in
    let got = Governor.with_ctx g filter in
    if (Governor.stats g).Governor.spill_partitions = 0 then
      Alcotest.failf "%s: never spilled" spill_filter_name;
    got
  in
  {
    name = spill_filter_name;
    expected =
      (fun ~check ->
        let got, candidates = run () in
        if check && not (R.equal expected got && candidates = expected_candidates)
        then Alcotest.failf "%s: wrong result" spill_filter_name);
  }

let scenarios () =
  [
    mining_scenario "plan/tiny-budget" ~mode:`Plan;
    mining_scenario "direct/tiny-budget" ~mode:`Direct;
    mining_scenario "dynamic/tiny-budget" ~mode:`Dynamic;
    storage_scenario;
    spill_filter_scenario ();
  ]

let typed_fault = function
  | Fault.Injected _ | Governor.Over_budget _ | Governor.Deadline_exceeded _
  | Governor.Cancelled ->
    true
  | _ -> false

let test_fault_sweep () =
  let total_points = ref 0 in
  (* The label of every injected point, per scenario. *)
  let injected = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let (), points = Fault.with_count (fun () -> s.expected ~check:true) in
      assert_no_leaks (s.name ^ " (clean)");
      Alcotest.(check bool)
        (s.name ^ ": counted at least one fault point")
        true (points > 0);
      total_points := !total_points + points;
      for k = 1 to points do
        (match Fault.with_inject ~at:k (fun () -> s.expected ~check:true) with
        | Ok (), _ -> ()
        | Error (Fault.Injected { point; _ }), _ ->
          Hashtbl.replace injected (s.name, point) ()
        | Error e, _ when typed_fault e -> ()
        | Error e, _ ->
          Alcotest.failf "%s: injection at point %d leaked exception %s"
            s.name k (Printexc.to_string e));
        assert_no_leaks (Printf.sprintf "%s (inject %d)" s.name k)
      done;
      (* The shared inputs survived every injection: a final clean run
         still produces the exact expected answer. *)
      s.expected ~check:true;
      assert_no_leaks (s.name ^ " (final)"))
    (scenarios ());
  (* The spilled FILTER must cross every I/O point of its spill path: a
     path that stops writing or reading its runs fails here, not only
     with a smaller count. *)
  List.iter
    (fun point ->
      Alcotest.(check bool)
        (Printf.sprintf "spilled group_filter_report injects %s" point)
        true
        (Hashtbl.mem injected (spill_filter_name, point)))
    [ "spill.create"; "heap.append"; "pager.write"; "pager.read" ];
  (* The acceptance bar: the sweep must exercise a substantial number of
     distinct injection points across the scenarios. *)
  Alcotest.(check bool)
    (Printf.sprintf "swept >= 200 fault points (got %d)" !total_points)
    true
    (!total_points >= 200)

let suite =
  [
    Alcotest.test_case "budget_of_string" `Quick test_budget_of_string;
    Alcotest.test_case "charge/release/peak accounting" `Quick
      test_charge_release_peak;
    Alcotest.test_case "deadline raises at the next check" `Quick
      test_deadline;
    Alcotest.test_case "cancel raises at the next check" `Quick test_cancel;
    Alcotest.test_case "ungoverned check is a no-op" `Quick
      test_ungoverned_check_is_noop;
    Alcotest.test_case "governed join = ungoverned; cancel stops it" `Quick
      test_governed_join;
    Alcotest.test_case "spilled group-by = in-memory" `Quick
      test_spilled_group_by_agrees;
    Alcotest.test_case "spilled group-filter = in-memory" `Quick
      test_spilled_group_filter_agrees;
    QCheck_alcotest.to_alcotest prop_map_partitions;
    Alcotest.test_case "an oversize spill run is partitioned again" `Quick
      test_oversize_run_resplits;
    Alcotest.test_case "executors agree under a tiny budget" `Slow
      test_executors_agree_under_tiny_budget;
    Alcotest.test_case "MIN/MAX over a string column: executors = naive"
      `Quick test_min_max_over_strings;
    Alcotest.test_case "plan execution honours the deadline" `Quick
      test_plan_deadline_interrupts;
    Alcotest.test_case "fault-injection sweep: typed errors only, no leaks"
      `Slow test_fault_sweep;
  ]
