(** Cost model for flock query plans (paper Sec. 4.3: "the general theory of
    cost-based optimization applies here").

    Estimates follow System-R conventions: the work of a binding-passing
    join is the sum of the intermediate results it reads and writes (one
    probe per input row, one unit per match), along the order the
    executor runs, less the [ok] probes its reducers enforce; per-subgoal
    match counts divide the relation's cardinality by the distinct counts
    of the bound columns (independence assumption), thinned where a
    reducer keeps only some of a parameter's values.  Every size comes from
    the one size model ({!Qf_datalog.Sizes}): a relation's profile from the
    catalog's statistics, a step output's estimated profile from the
    model's overlay.  FILTER-step survivor counts use a
    deliberately simple linear heuristic — if the expected number of answer
    tuples per parameter assignment [avg] is below the threshold [s], a
    fraction [avg/s] of assignments is assumed to survive, else no pruning
    is assumed.  The model is only used to rank plans; the dynamic executor
    (Sec. 4.4) is the paper's own answer to the model's imprecision. *)

type estimate = {
  work : float;  (** total intermediate tuples touched *)
  rows : float;  (** tabulated result size (params x head bindings) *)
}

(** Estimate tabulating one rule as the executor runs it.  The walk
    follows the evaluator's join order ({!Qf_datalog.Eval.greedy_order},
    ranking subgoals by {!Qf_datalog.Sizes.expected_matches} over [env], as
    the executor ranks them over the catalog's statistics).  The ok subgoals
    over [step_names] (default none) give their parameters reducers, read
    by the executor's rule ({!Plan_exec.reducer_columns}), renamed
    subgoals included.  Each reducer keeps the estimated distinct count of
    its ok column, taken to be the most frequent values of every column
    its parameter occupies: a subgoal that binds the parameter yields only
    the kept values' row mass (read off the column's frequency vector), a
    subgoal probed with the parameter bound matches the kept values' mean
    frequency, and a unary [ok($p)] the order puts after [$p] is bound is
    not walked, as {!Qf_datalog.Eval.filter_query} does not probe it.
    Raises [Failure] on a predicate missing from [env] and
    {!Qf_datalog.Eval.Error} on an unsafe rule. *)
val estimate_rule :
  ?step_names:string list -> Qf_datalog.Sizes.t -> Qf_datalog.Ast.rule -> estimate

(** Estimated number of distinct assignments of the given parameters
    (product of the parameters' smallest positive-occurrence column distinct
    counts across the rules of the query, {!Qf_datalog.Sizes.param_ndv}). *)
val estimate_groups :
  Qf_datalog.Sizes.t -> Qf_datalog.Ast.query -> string list -> float

(** [estimate_step env ~filter step] estimates executing one FILTER step
    under [filter]: returns the estimated work and the profile of the
    step's output relation (the surviving parameter assignments,
    {!Qf_datalog.Sizes.output}).  The
    work is the join walk of {!estimate_rule} for every rule, with the
    reducers of [step_names] (the plan's earlier steps), plus one unit per
    tabulated row for its group-table insert.  When
    [filter] is a COUNT and the step is a single-rule,
    single-positive-subgoal step over one parameter, the survivor count is
    computed {e exactly} from the column's frequency distribution (Ex.
    4.4's statistics gathering, {!Qf_datalog.Sizes.values_at_least});
    otherwise the linear heuristic applies. *)
val estimate_step :
  ?step_names:string list ->
  Qf_datalog.Sizes.t ->
  filter:Filter.t ->
  Plan.step ->
  float * Qf_datalog.Sizes.profile

(** {1 Plan estimates} *)

type step_estimate = {
  step : string;  (** step name, matching {!Plan.step.name} *)
  est_work : float;  (** estimated intermediate tuples touched *)
  est_groups : float;  (** estimated candidate parameter assignments *)
  est_rows : float;  (** estimated surviving assignments (output rows) *)
}

(** One estimate per step, auxiliary steps first and the final step last,
    with each step's estimated output profile overlaid for later steps
    ({!Qf_datalog.Sizes.add}), and
    each step priced with the reducers of its ok subgoals over the earlier
    steps ({!estimate_step}) —
    the estimated half of [flockc explain --profile]'s
    estimated-vs-observed report.  Raises [Failure] when [env] lacks a
    referenced predicate. *)
val plan_step_estimates :
  Qf_datalog.Sizes.t -> Plan.t -> step_estimate list

(** Total estimated work of a plan: the sum of {!plan_step_estimates}'
    [est_work].  This is the optimizer's cost. *)
val estimate_plan : Qf_datalog.Sizes.t -> Plan.t -> float
