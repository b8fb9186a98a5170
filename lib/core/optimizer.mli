(** Static cost-based plan search (paper Sec. 4.3, restriction 1).

    The space of legal plans is not even exponentially bounded, so the
    optimizer searches the paper's first exponential restriction: choose a
    set of parameter sets; for each, one FILTER step; finally the original
    query plus all [ok] subgoals.  Candidate parameter sets default to the
    singletons plus the full parameter set.

    Symmetric parameter sets share one step.  The steps are grouped into
    classes by {!Apriori_gen.classes}, the renaming that makes a member's
    query the class step's: a class enters a plan as one FILTER step with
    one renamed [ok] subgoal per member, the paper's footnote-3 form, e.g.
    [ok_1($1)], [ok_1($2)], [ok_1($3)] for a triple basket flock.  Every
    subset of the classes is costed with {!Cost.estimate_plan} — 4 plans for a
    basket pair or triple flock — and the cheapest plan wins (the empty
    subset gives the trivial plan, so the optimizer never loses to
    {!Direct} under its own model). *)

type choice = {
  plan : Plan.t;
  param_sets : string list list;
      (** the parameter sets the chosen steps filter, each sorted, every
          member of a class listed *)
  cost : float;
}

(** All costed alternatives, cheapest first.  [param_sets] defaults to
    singletons plus (when there are at least two parameters) the full set.
    Alternatives whose parameter set admits no safe subquery are skipped.
    Non-monotone filters yield only the trivial plan.

    Without [param_sets], the list is memoized in the catalog's subplan
    memo ({!Qf_relational.Catalog.memo_find_entry}), so a session that
    asks for a flock again over unchanged relations gets the physically
    same list and pays no search.  The key is a hash of the flock's rules
    and filter (its parameter names included, since the plans name them)
    followed by the ({!Qf_relational.Relation.id},
    {!Qf_relational.Relation.version}) pair of every predicate the rules
    read, or a marker for an unbound one: a {!Qf_relational.Relation.add},
    a rebinding {!Qf_relational.Catalog.add} or a
    {!Qf_relational.Catalog.remove} changes the key, and the stale entry
    ages out through the memo's LRU budget.  A stored list is returned
    only when its flock is {!Flock.equal} to [flock], so a hash collision
    is a miss.  With [param_sets],
    or at memo budget [0], the search runs every time and no key is
    computed.  Plan lookups count in no memo statistic. *)
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
