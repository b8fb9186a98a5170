(** Cost model for flock query plans (paper Sec. 4.3: "the general theory of
    cost-based optimization applies here").

    Estimates follow System-R conventions: the work of a binding-passing
    join is the sum of intermediate result sizes; per-subgoal match counts
    divide the relation's cardinality by the distinct counts of the bound
    columns (independence assumption).  FILTER-step survivor counts use a
    deliberately simple linear heuristic — if the expected number of answer
    tuples per parameter assignment [avg] is below the threshold [s], a
    fraction [avg/s] of assignments is assumed to survive, else no pruning
    is assumed.  The model is only used to rank plans; the dynamic executor
    (Sec. 4.4) is the paper's own answer to the model's imprecision. *)

(** Virtual statistics for one predicate. *)
type vstats = {
  rows : float;
  distinct : float array;  (** per column position *)
  frequencies : int array array;
      (** per column, per-value tuple counts descending; empty arrays for
          derived relations whose distribution is unknown *)
}

(** Statistics environment: predicate name -> stats.  Plan costing extends
    it with estimates for step outputs. *)
type env

(** Statistics for every relation in the catalog. *)
val of_catalog : Qf_relational.Catalog.t -> env

(** Add (or override) a predicate's stats, e.g. an auxiliary step output. *)
val extend : env -> string -> vstats -> env

val lookup : env -> string -> vstats option

type estimate = {
  work : float;  (** total intermediate tuples touched *)
  rows : float;  (** tabulated result size (params x head bindings) *)
}

(** Estimate tabulating one rule along the evaluator's join order
    ({!Qf_datalog.Eval.greedy_order}, ranking subgoals by this model's
    expected matches).  Raises [Failure] on a predicate missing from
    [env] and {!Qf_datalog.Eval.Error} on an unsafe rule. *)
val estimate_rule : env -> Qf_datalog.Ast.rule -> estimate

(** Estimated number of distinct assignments of the given parameters
    (product of the parameters' smallest positive-occurrence column distinct
    counts across the rules of the query). *)
val estimate_groups : env -> Qf_datalog.Ast.query -> string list -> float

(** [estimate_step env ~filter step] estimates executing one FILTER step
    under [filter]: returns the estimated work and the {!vstats} of the
    step's output relation (the surviving parameter assignments).  When
    [filter] is a COUNT and the step is a single-rule,
    single-positive-subgoal step over one parameter, the survivor count is
    computed {e exactly} from the column's frequency distribution (Ex.
    4.4's statistics gathering, {!Qf_relational.Statistics.values_at_least});
    otherwise the linear heuristic applies. *)
val estimate_step : env -> filter:Filter.t -> Plan.step -> float * vstats

(** {1 Plan estimates} *)

type step_estimate = {
  step : string;  (** step name, matching {!Plan.step.name} *)
  est_work : float;  (** estimated intermediate tuples touched *)
  est_groups : float;  (** estimated candidate parameter assignments *)
  est_rows : float;  (** estimated surviving assignments (output rows) *)
}

(** One estimate per step, auxiliary steps first and the final step last,
    with each step's estimated output statistics feeding later steps —
    the estimated half of [flockc explain --profile]'s
    estimated-vs-observed report.  [clamps] maps step names to certified
    [(groups, rows)] upper bounds (from
    [Qf_analysis.Absint.clamps_of_plan]); they cap
    [est_groups]/[est_rows] ([min(estimate, bound)]) and the output
    statistics fed forward.  Raises [Failure] when [env]
    lacks a referenced predicate. *)
val plan_step_estimates :
  ?clamps:(string * (float * float)) list ->
  env ->
  Plan.t ->
  step_estimate list

(** Total estimated work of a plan: the sum of {!plan_step_estimates}'
    [est_work] without clamps.  This is the optimizer's cost. *)
val estimate_plan : env -> Plan.t -> float
