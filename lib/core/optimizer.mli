(** Static cost-based plan search (paper Sec. 4.3, restriction 1).

    The space of legal plans is not even exponentially bounded, so the
    optimizer searches the paper's first exponential restriction: choose a
    set of parameter sets; for each, one FILTER step; finally the original
    query plus all [ok] subgoals.  Candidate parameter sets default to the
    singletons plus the full parameter set.  Every subset of the candidate
    collection is costed with {!Cost.estimate_plan}; the cheapest plan wins
    (the empty subset gives the trivial plan, so the optimizer never loses
    to {!Direct} under its own model). *)

type choice = {
  plan : Plan.t;
  param_sets : string list list;  (** the filter steps chosen *)
  cost : float;
}

(** All costed alternatives, cheapest first.  [param_sets] defaults to
    singletons plus (when there are at least two parameters) the full set.
    Alternatives whose parameter set admits no safe subquery are skipped.
    Non-monotone filters yield only the trivial plan. *)
val enumerate :
  ?param_sets:string list list ->
  Qf_relational.Catalog.t ->
  Flock.t ->
  choice list

(** The cheapest plan under the model. *)
val optimize :
  ?param_sets:string list list ->
  Qf_relational.Catalog.t ->
  Flock.t ->
  Plan.t
