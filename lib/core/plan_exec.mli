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
      (** rows removed from base relations by materialized semijoin
          reducers while computing this step (deterministic: identical
          on every run) *)
}

type report = {
  result : Qf_relational.Relation.t;
  steps : step_report list;  (** in execution order, final step last *)
}

(** Executor optimizations, exposed so the benchmarks can ablate them.

    - [semijoin_reduction] pre-filters base relations against {!Sip}
      reducers (exact code sets or Bloom filters) built over the unary
      [ok] relations restricting their parameters — the rewrite behind
      the paper's Sec. 1.3 speedup — and hands multi-parameter [ok]
      reducers to the evaluator's binding extension
      ([Eval.filter_query ~sip]).  Placement is cost-gated by
      {!Cost.should_reduce};
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

(** Run a plan.  The input catalog is not modified. *)
val run :
  ?options:options -> Qf_relational.Catalog.t -> Plan.t -> Qf_relational.Relation.t

(** Like {!run} but also reports per-step sizes (for benchmarks and the
    optimizer's calibration). *)
val run_with_report :
  ?options:options -> Qf_relational.Catalog.t -> Plan.t -> report
