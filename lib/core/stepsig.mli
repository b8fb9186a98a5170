(** Canonical α-equivalence signatures for FILTER steps — the one reuse
    key of the plan executor, for both of its scopes: the earlier steps
    of the same plan (Ex. 3.1's symmetric twins among them) and the
    catalog's cross-level subplan memo.

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
    plan's earlier steps).  [None] when a referenced predicate is not in
    [work] or the filter's column cannot be positioned — such steps are
    always computed. *)
val of_step :
  work:Qf_relational.Catalog.t -> filter:Filter.t -> Plan.step -> string option
