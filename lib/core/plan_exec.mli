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
      (** [Some earlier] when the step is α-equivalent to the earlier step
          [earlier] of the same plan (the Ex. 3.1 symmetry, among others)
          and was aliased to its result instead of being computed *)
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

(** Executor optimizations, exposed so the benchmarks can ablate them.

    - [semijoin_reduction] hands the evaluator ([Eval.filter_query
      ~sip]) one exact {!Qf_relational.Sip} reducer per parameter of
      every [ok] subgoal, built over that [ok] relation's column: a
      value outside it is dropped where the parameter is bound, and a
      unary [ok($p)] the join order puts after [$p] is bound is not
      probed — the rewrite behind the paper's Sec. 1.3 speedup, done
      inside the join;
    - [reuse] computes each α-equivalence class of steps once, keyed by
      its {!Stepsig} signature.  The key is looked up first among this
      plan's earlier steps (the Ex. 3.1 remark: "the set of $1's that
      survive ... is exactly the same as the set of $2's"), whatever the
      memo budget; then in the catalog's cross-level subplan memo
      ({!Qf_relational.Catalog.memo_find}), where level k-1's final query
      — exactly one of level k's auxiliary steps — is fetched instead of
      recomputed.  The memo budget ([QF_MEMO_BUDGET]) alone turns the
      cross-level scope on or off.  [false] computes every step. *)
type options = {
  semijoin_reduction : bool;
  reuse : bool;
}

(** All enabled. *)
val default_options : options

(** The reducer columns of a rule, the rule [semijoin_reduction] reads
    them by: every ok subgoal over [step_names] whose arguments are all
    parameters gives each argument's parameter a reducer over the
    subgoal's relation, at the column of the argument's position (the
    step's parameter it renames).  Each entry is [(parameter, (ok
    predicate, column))], in body order.  {!Cost} prices a step's
    reducers from the same list. *)
val reducer_columns :
  step_names:string list -> Qf_datalog.Ast.rule -> (string * (string * int)) list

(** Run a plan.  The input catalog is not modified. *)
val run :
  ?options:options -> Qf_relational.Catalog.t -> Plan.t -> Qf_relational.Relation.t

(** Like {!run} but also reports per-step sizes (for benchmarks and the
    optimizer's calibration). *)
val run_with_report :
  ?options:options -> Qf_relational.Catalog.t -> Plan.t -> report
