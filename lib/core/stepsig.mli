(** Canonical α-equivalence signatures for FILTER steps — the plan
    executor's key into the catalog's cross-level subplan memo, computed
    only when the memo has a budget.  A plan's own symmetric steps are
    not found here: they are one class step when the plan is built
    ({!Apriori_gen.classes}).

    Two steps get the same signature only when a bijective renaming of
    parameters (positional over the steps' sorted parameter lists, so it
    matches the output relations' column order) and of variables
    (first-occurrence order per rule) maps one query onto the other,
    their constants are equal values of the same type (each is rendered
    exactly and tagged: [i:1], [r:0x1p+0], [s:"a"], so [1] and [1.0]
    differ), their filters agree under that renaming (aggregated columns
    compared by head position), and every referenced predicate resolves
    to the {e same relation snapshot} — the signature embeds each
    dependency's
    ({!Qf_relational.Relation.id}, {!Qf_relational.Relation.version})
    pair in first-occurrence order, which is what makes memo entries
    invalidate on mutation and cascade across plan runs: when an earlier
    step memo-hits, the very same relation object is registered under the
    new plan's step name, so downstream signatures keep matching.

    The check is sound but deliberately incomplete: reordered bodies or
    semantically-equivalent-but-structurally-different queries hash
    apart and are simply recomputed. *)

(** [of_step ~work ~filter step] — the signature of [step] against the
    working catalog [work] (which must already hold the outputs of the
    plan's earlier steps).  [bounding] (default [false]) says whether the
    step is an auxiliary one, whose FILTER only bounds the final step
    ({!Qf_datalog.Eval.groups}); over a [SUM] or [MAX] measure it is part
    of the signature.  [None] when a referenced predicate is not in
    [work] or the filter's column cannot be positioned — such steps are
    always computed. *)
val of_step :
  work:Qf_relational.Catalog.t ->
  filter:Filter.t ->
  ?bounding:bool ->
  Plan.step ->
  string option
