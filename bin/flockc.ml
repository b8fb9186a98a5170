(* flockc: the query-flock compiler/runner.

   Subcommands:
     flockc check <file.flock>                    parse + safety report
     flockc lint <file.flock> [--format ...]      static analysis (QF0xx)
     flockc candidates <file.flock>               safe a-priori subqueries
     flockc explain <file.flock> -d pred=csv ...  costed plans
     flockc run <file.flock> -d pred=csv ...      evaluate, print result CSV

   Data files are CSV with a header row; the relation is registered under
   the name given before '='. *)

open Cmdliner
module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
open Qf_core

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_program path =
  match Parse.program (read_file path) with
  | Ok p -> Ok p
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

(* Materialize the program's views (if any) into the catalog, and check
   that every predicate the flock's bodies name is stored or a view, so
   a missing relation is reported before planning needs its
   statistics. *)
let prepare catalog (p : Parse.program) =
  let ( let* ) = Result.bind in
  let* catalog =
    if p.views = [] then Ok catalog else Views.materialize catalog p.views
  in
  let body_preds =
    List.concat_map
      (fun (r : Qf_datalog.Ast.rule) ->
        List.filter_map
          (function
            | Qf_datalog.Ast.Pos a | Qf_datalog.Ast.Neg a -> Some a.pred
            | Qf_datalog.Ast.Cmp _ -> None)
          r.body)
      p.flock.Flock.query
  in
  match List.find_opt (fun pred -> not (Catalog.mem catalog pred)) body_preds with
  | Some pred -> Error ("unknown predicate " ^ pred)
  | None -> Ok catalog

let db_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "D"; "database" ] ~docv:"DIR"
        ~doc:
          "Load every relation from a store directory (see $(b,import)); \
           $(b,--data) bindings are applied on top.")

(* A store that is missing or corrupt is an input error (exit 1), and
   reading one never creates the directory. *)
let load_store dir =
  match Qf_storage.Store.to_catalog (Qf_storage.Store.open_existing dir) with
  | cat -> Ok cat
  | exception (Failure e | Sys_error e | Invalid_argument e) ->
    Error (Printf.sprintf "loading store %s: %s" dir e)

let load_catalog ?db specs =
  let ( let* ) = Result.bind in
  let* cat =
    match db with
    | Some dir -> load_store dir
    | None -> Ok (Catalog.create ())
  in
  let rec go = function
    | [] -> Ok cat
    | spec :: rest -> (
      match String.index_opt spec '=' with
      | None ->
        Error (Printf.sprintf "--data %S: expected the form pred=file.csv" spec)
      | Some i -> (
        let pred = String.sub spec 0 i in
        let path = String.sub spec (i + 1) (String.length spec - i - 1) in
        match Qf_relational.Csv.load path with
        | rel ->
          Catalog.add cat pred rel;
          go rest
        | exception (Sys_error e | Failure e) ->
          Error (Printf.sprintf "loading %s: %s" path e)))
  in
  go specs

(* {1 Arguments} *)

let flock_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FLOCK" ~doc:"Flock program (QUERY:/FILTER: syntax).")

let data_arg =
  Arg.(
    value & opt_all string []
    & info [ "d"; "data" ] ~docv:"PRED=CSV"
        ~doc:"Bind relation $(i,PRED) to the rows of $(i,CSV). Repeatable.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Log join orders, filter-step sizes, and dynamic decisions.")

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("flockc: " ^ msg);
    exit 1

(* {1 check} *)

let check_cmd =
  let run path =
    match load_program path with
    | Error msg ->
      prerr_endline ("flockc: " ^ msg);
      exit 1
    | Ok { Parse.views; flock } ->
      if views <> [] then
        Format.printf "views: %s@.@."
          (String.concat ", "
             (List.sort_uniq String.compare
                (List.map (fun (r : Qf_datalog.Ast.rule) -> r.head.pred) views)));
      Format.printf "%s@.@." (Flock.to_string flock);
      Format.printf "rules: %d@." (Flock.rule_count flock);
      Format.printf "parameters: %s@."
        (String.concat ", " (List.map (fun p -> "$" ^ p) (Flock.params flock)));
      Format.printf "filter is monotone: %b@."
        (Filter.is_monotone flock.filter);
      Format.printf "safe: yes (checked during parsing)@."
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse a flock program and report its structure")
    Term.(const run $ flock_file)

(* {1 lint} *)

let lint_format_arg =
  Arg.(
    value
    & opt (enum [ "text", `Text; "json", `Json ]) `Text
    & info [ "f"; "format" ] ~docv:"FORMAT"
        ~doc:"Diagnostic output format: $(b,text) or $(b,json).")

let deny_warnings_arg =
  Arg.(
    value & flag
    & info [ "deny-warnings" ]
        ~doc:"Exit non-zero on warnings too, not only on errors.")

let absint_arg =
  Arg.(
    value & flag
    & info [ "absint" ]
        ~doc:
          "Run the abstract interpreter over the program: certify dead \
           subgoals, provably empty flocks, and SUM monotonicity against \
           the loaded catalog's statistics (QF07x).  Requires $(b,--data) \
           or $(b,--database).")

let lint_cmd =
  let run path data db format deny absint =
    let module Diag = Qf_analysis.Diagnostic in
    let text =
      match read_file path with
      | text -> text
      | exception Sys_error e ->
        prerr_endline ("flockc: " ^ e);
        exit 2
    in
    (* An unloadable catalog is unreadable input (exit 2), not a lint
       finding (exit 1). *)
    let catalog =
      match data, db with
      | [], None -> None
      | _ -> (
        match load_catalog ?db data with
        | Ok cat -> Some cat
        | Error msg ->
          prerr_endline ("flockc: " ^ msg);
          exit 2)
    in
    let absint_diags =
      if not absint then []
      else
        match catalog with
        | None ->
          prerr_endline
            "flockc: lint --absint needs catalog statistics; pass --data or \
             --database";
          exit 2
        | Some cat -> (
          match Parse.program_located text with
          | Error _ -> []
          | Ok lp ->
            (* Seed the domain from view outputs too, when views parse. *)
            let cat =
              match Parse.program text with
              | Ok p -> (
                match prepare cat p with Ok c -> c | Error _ -> cat)
              | Error _ -> cat
            in
            Qf_analysis.Absint.check_program ~catalog:cat lp)
    in
    let diags = Diag.sort (Qf_analysis.Lint.lint ?catalog text @ absint_diags) in
    (match format with
    | `Text -> print_string (Diag.render_text ~file:path diags)
    | `Json -> print_string (Diag.render_json ~file:path diags));
    (* Cross-check plan generation on clean monotone programs: build the
       default a-priori plan and run the independent Sec. 4.2 verifier over
       it (the auditor inside Plan.make sees it too). *)
    if not (Diag.has_errors diags) then begin
      Qf_analysis.Validate.install ();
      match Parse.program text with
      | Error _ -> ()
      | Ok { Parse.flock; _ } -> (
        match Apriori_gen.singleton_plan flock with
        | Ok plan -> (
          match Qf_analysis.Plan_check.verify plan with
          | Ok () -> ()
          | Error e ->
            prerr_endline ("flockc: internal: illegal generated plan: " ^ e);
            exit 3)
        | Error _ -> ())
    end;
    let failing =
      Diag.has_errors diags || (deny && Diag.count Diag.Warning diags > 0)
    in
    exit (if failing then 1 else 0)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a flock program: safety (Sec. 3.3), schema \
          consistency, redundant subgoals (Sec. 3.1), arithmetic \
          contradictions, join hygiene, and FILTER sanity, as stable \
          QF0xx diagnostics with source spans.  With $(b,--absint), also \
          run abstract-interpretation bound certification (QF07x).  Exit \
          status: 0 clean, 1 findings, 2 unreadable input, 3 internal \
          plan-legality failure.")
    Term.(
      const run $ flock_file $ data_arg $ db_arg $ lint_format_arg
      $ deny_warnings_arg $ absint_arg)

(* {1 candidates} *)

let candidates_cmd =
  let run path =
    let flock = (or_die (load_program path)).Parse.flock in
    List.iteri
      (fun i rule ->
        Format.printf "rule %d: %s@." i (Qf_datalog.Pretty.rule_to_string rule);
        let candidates = Qf_datalog.Subquery.enumerate rule in
        List.iter
          (fun (c : Qf_datalog.Subquery.candidate) ->
            Format.printf "  restricts {%s}: %s@."
              (String.concat "," (List.map (fun p -> "$" ^ p) c.params))
              (Qf_datalog.Pretty.rule_to_string c.rule))
          candidates;
        Format.printf "  (%d safe candidates)@.@." (List.length candidates))
      flock.Flock.query
  in
  Cmd.v
    (Cmd.info "candidates"
       ~doc:"List the safe a-priori subqueries of each rule (Sec. 3)")
    Term.(const run $ flock_file)

(* {1 The resource governor's arguments (explain --profile and mine)} *)

module Governor = Qf_governor.Governor

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Wall-clock deadline in seconds.  The evaluator is interrupted \
           cooperatively at its next checkpoint and $(b,flockc) exits with \
           status 124.  Defaults to $(b,QF_TIMEOUT) when set.")

let mem_budget_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mem-budget" ] ~docv:"BYTES"
        ~doc:
          "Memory budget: plain bytes, a $(b,k)/$(b,m)/$(b,g) suffix, or \
           $(b,unbounded).  Group-by kernels spill to temp files when the \
           budget trips; if even spilling cannot fit, $(b,flockc) \
           exits with status 125.  Defaults to $(b,QF_MEM_BUDGET) when set.")

let make_governor ~timeout ~mem_budget =
  let budget =
    match mem_budget with
    | Some s -> (
      match Governor.budget_of_string s with
      | Some b -> Ok (Some b)
      | None ->
        Error
          (Printf.sprintf
             "--mem-budget %S: expected bytes with an optional k/m/g suffix, \
              or \"unbounded\""
             s))
    | None ->
      Ok (Option.bind (Sys.getenv_opt "QF_MEM_BUDGET") Governor.budget_of_string)
  in
  let timeout =
    match timeout with
    | Some _ -> timeout
    | None -> Option.bind (Sys.getenv_opt "QF_TIMEOUT") float_of_string_opt
  in
  Result.map
    (fun b -> Governor.create ?mem_budget:b ?timeout_s:timeout ())
    budget

(* Resource faults become the conventional shell exit codes: 124 for a
   deadline (mirroring timeout(1)), 125 for an unsatisfiable budget. *)
let governed ~context f =
  try f () with
  | Governor.Deadline_exceeded { timeout; _ } ->
    Printf.eprintf "flockc: %s: deadline exceeded (timeout %gs)\n" context
      timeout;
    exit 124
  | Governor.Over_budget { requested; budget; _ } ->
    Printf.eprintf
      "flockc: %s: memory budget exceeded (requested %d bytes against budget \
       %d)\n"
      context requested budget;
    exit 125

(* {1 explain} *)

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Run the chosen plan with observability enabled and print each \
           step's observed cardinalities and wall-clock time next to the \
           optimizer's estimates, plus mining counters (a-priori candidate \
           funnel, index-cache hits).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the profile as a single JSON object (implies --profile).")

let redact_timings_arg =
  Arg.(
    value & flag
    & info [ "redact-timings" ]
        ~doc:
          "Print every duration as $(b,-) (text) or $(b,null) (JSON) so the \
           output is byte-stable across runs (for golden tests).")

let explain_cmd =
  let run path data db profile json redact timeout mem_budget =
    let program = or_die (load_program path) in
    let flock = program.Parse.flock in
    let catalog = or_die (prepare (or_die (load_catalog ?db data)) program) in
    let clamp = Qf_analysis.Absint.clamps_of_plan catalog in
    let choices = Optimizer.enumerate ~clamp catalog flock in
    let profile = profile || json in
    if not json then begin
      Format.printf "%d costed plans (cheapest first):@.@."
        (List.length choices);
      List.iteri
        (fun i (c : Optimizer.choice) ->
          Format.printf "#%d  estimated work %.0f  steps: %s@." i c.cost
            (Explain.plan_summary c.plan))
        choices;
      match choices with
      | best :: _ ->
        Format.printf "@.chosen plan:@.@.%s@."
          (Explain.plan_to_string best.plan)
      | [] -> ()
    end;
    if profile then
      match choices with
      | [] ->
        prerr_endline "flockc: explain --profile: no plan to profile";
        exit 1
      | best :: _ ->
        let clamps = clamp best.Optimizer.plan in
        (* A governor is installed only when asked for, so ungoverned
           profiles keep their exact historical output. *)
        let governor =
          match timeout, mem_budget with
          | None, None -> None
          | _ -> Some (or_die (make_governor ~timeout ~mem_budget))
        in
        let p =
          governed ~context:"explain" @@ fun () ->
          Explain.profile ~clamps ?governor catalog best.Optimizer.plan
        in
        if json then print_string (Explain.profile_json ~redact_timings:redact p)
        else begin
          Format.printf "@.";
          print_string (Explain.profile_text ~redact_timings:redact p)
        end
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Enumerate and cost candidate plans against the data (Sec. 4.3); \
          with $(b,--profile), run the chosen plan and report observed \
          per-step cardinalities and timings next to the estimates; with \
          $(b,--mem-budget) or $(b,--timeout), run it under the resource \
          governor and report peak bytes and spill volume")
    Term.(
      const run $ flock_file $ data_arg $ db_arg $ profile_arg $ json_arg
      $ redact_timings_arg $ timeout_arg $ mem_budget_arg)

(* {1 run} *)

let mode_arg =
  let modes =
    [ "direct", `Direct; "plan", `Plan; "dynamic", `Dynamic; "naive", `Naive ]
  in
  Arg.(
    value
    & opt (enum modes) `Plan
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:
          "Evaluation strategy: $(b,direct) (no a-priori), $(b,plan) \
           (cost-based static plan), $(b,dynamic) (run-time filter \
           selection), or $(b,naive) (generate-and-test oracle; tiny inputs \
           only).")

let run_cmd =
  let run path data db mode verbose =
    setup_logs verbose;
    let program = or_die (load_program path) in
    let flock = program.Parse.flock in
    let catalog = or_die (prepare (or_die (load_catalog ?db data)) program) in
    let result =
      match mode with
      | `Direct -> Direct.run catalog flock
      | `Plan -> Plan_exec.run catalog (Optimizer.optimize catalog flock)
      | `Dynamic -> (
        match Dynamic.run catalog flock with
        | Ok r -> r.answers
        | Error e ->
          prerr_endline ("flockc: dynamic: " ^ e ^ "; falling back to direct");
          Direct.run catalog flock)
      | `Naive -> Naive.run catalog flock
    in
    print_string (Qf_relational.Csv.to_string result)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Evaluate a flock against CSV data; print result CSV")
    Term.(const run $ flock_file $ data_arg $ db_arg $ mode_arg $ verbose_arg)

(* {1 mine: governed evaluation} *)

let mine_cmd =
  let run path data db mode verbose timeout mem_budget =
    setup_logs verbose;
    let program = or_die (load_program path) in
    let flock = program.Parse.flock in
    let catalog = or_die (prepare (or_die (load_catalog ?db data)) program) in
    let g = or_die (make_governor ~timeout ~mem_budget) in
    let result =
      governed ~context:"mine" @@ fun () ->
      Governor.with_ctx g @@ fun () ->
      match mode with
      | `Direct -> Direct.run catalog flock
      | `Plan -> Plan_exec.run catalog (Optimizer.optimize catalog flock)
      | `Dynamic -> (
        match Dynamic.run catalog flock with
        | Ok r -> r.answers
        | Error e ->
          prerr_endline ("flockc: dynamic: " ^ e ^ "; falling back to direct");
          Direct.run catalog flock)
      | `Naive -> Naive.run catalog flock
    in
    print_string (Qf_relational.Csv.to_string result);
    if verbose then begin
      let s = Governor.stats g in
      Format.eprintf
        "flockc: mine: peak %d bytes, %d spill partitions (%d rows, %d \
         bytes)@."
        s.peak_bytes s.spill_partitions s.spilled_rows s.spilled_bytes
    end
  in
  Cmd.v
    (Cmd.info "mine"
       ~doc:
         "Evaluate a flock under a resource governor: a byte-accounted \
          memory budget (spilling group-bys to disk when it trips) and a \
          wall-clock deadline with cooperative cancellation.  Exit status: \
          124 deadline exceeded, 125 budget unsatisfiable even after \
          spilling.")
    Term.(
      const run $ flock_file $ data_arg $ db_arg $ mode_arg $ verbose_arg
      $ timeout_arg $ mem_budget_arg)

(* {1 sql} *)

let sql_cmd =
  let run path data db mode =
    let catalog = or_die (load_catalog ?db data) in
    let flock =
      match Qf_sql.Compile.of_string catalog (read_file path) with
      | Ok f -> f
      | Error e ->
        prerr_endline ("flockc: sql: " ^ e);
        exit 1
    in
    Format.eprintf "compiled flock:@.@.%s@.@." (Flock.to_string flock);
    let result =
      match mode with
      | `Direct -> Direct.run catalog flock
      | `Plan -> Plan_exec.run catalog (Optimizer.optimize catalog flock)
      | `Dynamic -> (
        match Dynamic.run catalog flock with
        | Ok r -> r.answers
        | Error e ->
          prerr_endline ("flockc: dynamic: " ^ e ^ "; falling back to direct");
          Direct.run catalog flock)
      | `Naive -> Naive.run catalog flock
    in
    print_string (Qf_relational.Csv.to_string result)
  in
  Cmd.v
    (Cmd.info "sql"
       ~doc:
         "Compile a Fig.-1-style SQL query (SELECT/FROM/WHERE/GROUP           BY/HAVING) to a flock and evaluate it")
    Term.(const run $ flock_file $ data_arg $ db_arg $ mode_arg)

(* {1 rules / maximal: the mining conveniences} *)

let pred_arg =
  Arg.(
    value & opt string "baskets"
    & info [ "p"; "pred" ] ~docv:"PRED"
        ~doc:"The (BID, Item) relation to mine.")

let support_arg =
  Arg.(
    value & opt int 20
    & info [ "s"; "support" ] ~docv:"N" ~doc:"Support threshold.")

(* The catalog holding [pred], the (BID, Item) relation the mining
   conveniences read: a missing or non-binary relation is an input
   error. *)
let mining_catalog data db pred =
  let catalog = or_die (load_catalog ?db data) in
  match Catalog.find_opt catalog pred with
  | None -> or_die (Error ("unknown predicate " ^ pred))
  | Some rel when Relation.arity rel <> 2 ->
    or_die
      (Error
         (Printf.sprintf
            "-p %s: expected a binary (BID, Item) relation, got arity %d" pred
            (Relation.arity rel)))
  | Some _ -> catalog

let rules_cmd =
  let confidence_arg =
    Arg.(
      value & opt float 0.5
      & info [ "c"; "confidence" ] ~docv:"C" ~doc:"Confidence floor.")
  in
  let run data db pred support confidence =
    if support < 1 then or_die (Error "rules: support must be at least 1");
    let catalog = mining_catalog data db pred in
    let rules =
      Measures.pair_rules catalog ~pred ~support ~min_confidence:confidence
    in
    Format.printf "%d rules (support >= %d, confidence >= %.2f):@."
      (List.length rules) support confidence;
    List.iter (fun r -> Format.printf "  %a@." Measures.pp_rule r) rules
  in
  Cmd.v
    (Cmd.info "rules"
       ~doc:
         "Mine association rules with support, confidence, and interest \
          (Sec. 1.1)")
    Term.(const run $ data_arg $ db_arg $ pred_arg $ support_arg $ confidence_arg)

let maximal_cmd =
  let run data db pred support =
    let catalog = mining_catalog data db pred in
    let levels = Sequence.frequent_levels catalog ~pred ~support in
    List.iter
      (fun (l : Sequence.level) ->
        Format.printf "level %d: %d frequent %d-item sets@." l.k
          (Relation.cardinal l.itemsets) l.k)
      levels;
    let maximal = Sequence.maximal levels in
    Format.printf "%d maximal frequent itemsets:@." (List.length maximal);
    List.iter
      (fun (_, tup) ->
        Format.printf "  %a@." Qf_relational.Tuple.pp tup)
      maximal
  in
  Cmd.v
    (Cmd.info "maximal"
       ~doc:
         "Mine maximal frequent itemsets via a flock sequence (the paper's \
          footnote 2)")
    Term.(const run $ data_arg $ db_arg $ pred_arg $ support_arg)

(* {1 import} *)

let import_cmd =
  let dir_pos =
    Cmdliner.Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Store directory (created if missing).")
  in
  let specs_pos =
    Cmdliner.Arg.(
      non_empty
      & pos_right 0 string []
      & info [] ~docv:"PRED=CSV" ~doc:"Relations to import.")
  in
  let run dir specs =
    let catalog = or_die (load_catalog specs) in
    let store = Qf_storage.Store.open_dir dir in
    List.iter
      (fun name ->
        Qf_storage.Store.save store name (Catalog.find catalog name);
        Format.printf "imported %s (%d tuples)@." name
          (Relation.cardinal (Catalog.find catalog name)))
      (List.sort String.compare (Catalog.names catalog))
  in
  Cmd.v
    (Cmd.info "import" ~doc:"Import CSV files into a store directory")
    Term.(const run $ dir_pos $ specs_pos)

let () =
  let doc = "query flocks: generalized association-rule mining (SIGMOD 1998)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "flockc" ~version:"1.0.0" ~doc)
          [ check_cmd; lint_cmd; candidates_cmd; explain_cmd; run_cmd; mine_cmd; sql_cmd; import_cmd; rules_cmd; maximal_cmd ]))
