(* Aggregates every suite; `dune runtest` runs this executable. *)
let () =
  (* Sanitizer: every plan built anywhere in this binary -- by the static
     optimizer, the levelwise generator, or a test by hand -- is
     cross-checked against the independent Sec. 4.2 legality verifier AND
     the containment-based translation validator. *)
  Qf_analysis.Validate.install ();
  Alcotest.run "query_flocks"
    [
      "value", Test_value.suite;
      "relational", Test_relational.suite;
      "algebra", Test_algebra.suite;
      "syntax", Test_syntax.suite;
      "safety", Test_safety.suite;
      "containment", Test_containment.suite;
      "eval", Test_eval.suite;
      "flock", Test_flock.suite;
      "plan", Test_plan.suite;
      "dynamic", Test_dynamic.suite;
      "generation", Test_generation.suite;
      "apriori", Test_apriori.suite;
      "workload", Test_workload.suite;
      "views", Test_views.suite;
      "sql", Test_sql.suite;
      "storage", Test_storage.suite;
      "sequence", Test_sequence.suite;
      "golden", Test_golden.suite;
      "lint", Test_lint.suite;
      "absint", Test_absint.suite;
      "parallel", Test_parallel.suite;
      "kernels", Test_kernels.suite;
      "properties", Test_props.suite;
      "sip", Test_sip.suite;
      "differential", Test_differential.suite;
      "obs", Test_obs.suite;
      "governor", Test_governor.suite;
      "cli", Test_cli.suite;
    ]
