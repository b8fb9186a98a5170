(** Dynamic selection of filter steps (paper Sec. 4.4).

    The join order is fixed up front ({!Qf_datalog.Eval.order_body}, the
    order a plan step runs); whether to interpose a FILTER step after
    each literal is decided {e at execution time} from the sizes of the
    intermediate result, not estimated in advance:

    - if the current parameter set [S] has not been filtered before, filter
      when the average number of tuples per [S]-assignment is below
      [ratio_factor * threshold] (few tuples per assignment means many
      assignments are about to die);
    - if [S] was seen before, filter when the average has dropped below
      [improvement_factor] times the best previously observed average
      (something substantial changed since the last filtering opportunity).

    A filter step is only possible once the head variables are bound (the
    prefix must be a safe subquery).  Every grouping — the assignment
    count, an interposed filter, the final answer — runs on the FILTER
    group table a plan step fills ({!Qf_datalog.Eval.groups}).

    For single-rule COUNT filters the walk is primed with a-priori
    {!Qf_relational.Sip} reducers: one per parameter, over the survivors
    of the FILTER on its minimal safe subquery, so the evaluator skips
    doomed bindings instead of creating and later filtering them.  They
    change neither the trace shape (one decision per literal) nor the
    answers.

    {b Unions} (Sec. 3.4) need care: an assignment can fail one rule's
    prefix count and still reach the threshold through the other rules, so
    pruning a branch from its own counts alone is unsound.  The executor
    therefore precomputes, for every rule [j] and parameter [p], the
    per-value answer-count bound of [j]'s minimal safe subquery for [p];
    while evaluating rule [i], assignment [a] is pruned only when

    {v prefix_count_i(a) + sum over j<>i of B_j(a) < threshold v}

    with [B_j(a) = min over p of bound_{j,p}(a_p)] — then the union total
    provably fails the filter ([|A ∪ B| <= |A| + |B|]), so dropping [a]
    from branch [i] cannot change the result.  Union support covers COUNT
    filters; SUM/MAX unions return [Error] (their per-rule bounds would
    need weighted subquery aggregates). *)

type config = {
  ratio_factor : float;  (** default 1.0 *)
  improvement_factor : float;  (** default 0.5 *)
}

val default_config : config

type decision = {
  after : string;  (** the literal just applied (paper syntax) *)
  param_set : string list;  (** parameters bound at this point *)
  rows : int;  (** environments after the literal *)
  assignments : int;  (** distinct parameter assignments among them *)
  ratio : float;  (** rows / assignments *)
  filtered : bool;
  survivors : int option;  (** assignments surviving, when filtered *)
}

type result = {
  answers : Qf_relational.Relation.t;  (** the flock's result *)
  trace : decision list;  (** one decision per body literal, in join order *)
}

(** Returns [Error] for non-COUNT unions, non-monotone filters and
    evaluation failures.  Like every executor it raises
    {!Qf_relational.Aggregate.Non_numeric} on a SUM over a non-numeric
    value, and the governor's exceptions under a governor. *)
val run :
  ?config:config ->
  Qf_relational.Catalog.t ->
  Flock.t ->
  (result, string) Stdlib.result
