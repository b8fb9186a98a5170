(** Execution of FILTER-step plans.

    Steps run in order against a working copy of the catalog: each step
    tabulates its query (parameters as grouping variables), applies the
    flock's filter per parameter group, and registers the surviving
    parameter tuples as a new stored relation, which later steps join as an
    ordinary subgoal.  The final step's output is the flock's result.

    Because every auxiliary step's query upper-bounds the flock's query
    (subset of subgoals, Sec. 3) and the filter is monotone, the plan's
    result equals {!Direct.run} — tested as a core invariant. *)

type step_report = {
  step_name : string;
  tabulated_rows : int;  (** rows produced before grouping *)
  groups : int;  (** distinct parameter assignments seen *)
  survivors : int;  (** assignments passing the filter *)
  seconds : float;  (** wall-clock time of the step *)
  reused_from : string option;
      (** always [None]: a plan's symmetric steps are one step when the
          plan is built ({!Apriori_gen.classes}), and the catalog's memo
          is the one run-time reuse ([memo_hit]).  Kept only because
          [perfbench/qfbench.ml] reads it. *)
  memo_hit : bool;
      (** the step's result came from the catalog's cross-level subplan
          memo (an α-equivalent step computed by a previous plan run
          against the same base relations) *)
  sip_pruned : int;
      (** candidate matches the step's SIP reducers rejected in its
          binding extensions, the step's share of the [sip.rows_pruned]
          counter (deterministic: identical on every run) *)
}

type report = {
  result : Qf_relational.Relation.t;
  steps : step_report list;  (** in execution order, final step last *)
}

(** The reducer columns of a rule, the rule [~sip] reads them by: every
    ok subgoal over [step_names] whose arguments are all parameters
    gives each argument's parameter a reducer over the
    subgoal's relation, at the column of the argument's position (the
    step's parameter it renames).  Each entry is [(parameter, (ok
    predicate, column))], in body order.  {!Cost} prices a step's
    reducers from the same list. *)
val reducer_columns :
  step_names:string list -> Qf_datalog.Ast.rule -> (string * (string * int)) list

(** Run a plan.  The input catalog is not modified.

    Each step is first looked up in the catalog's cross-level subplan
    memo ({!Qf_relational.Catalog.memo_find}) under its {!Stepsig}
    signature, where level k-1's final query — exactly one of level k's
    auxiliary steps — is fetched instead of recomputed; a computed step
    is published there.  The memo budget ([QF_MEMO_BUDGET]) alone turns
    this on or off; at budget [0] every step is computed and no
    signature is built.

    [sip] (default [true]) hands the evaluator ([Eval.filter_query
    ~sip]) one exact {!Qf_relational.Sip} reducer per parameter of every
    [ok] subgoal, built over that [ok] relation's column: a value outside
    it is dropped where the parameter is bound, and a unary [ok($p)] the
    join order puts after [$p] is bound is not probed — the rewrite
    behind the paper's Sec. 1.3 speedup, done inside the join.  [false]
    is there so the benchmarks and tests can ablate it. *)
val run :
  ?sip:bool -> Qf_relational.Catalog.t -> Plan.t -> Qf_relational.Relation.t

(** Like {!run} but also reports per-step sizes, for benchmarks and
    [flockc explain --profile]. *)
val run_with_report : ?sip:bool -> Qf_relational.Catalog.t -> Plan.t -> report
