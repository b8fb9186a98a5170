(** Direct ("SQL-style") flock evaluation — the paper's Fig. 1 baseline.

    Evaluate the full query with parameters as free grouping variables,
    group by the parameters, aggregate the distinct answer tuples of each
    group, and keep the groups passing the filter.  This is what a
    conventional DBMS does with the GROUP BY / HAVING formulation, with no
    a-priori pruning — correct, and the yardstick the optimized plans are
    measured against.  It is the one-step plan FILTER(all parameters, Q,
    C), run through [Qf_datalog.Eval.filter_query] like every plan step,
    so it differs from an a-priori plan only in the plan. *)

(** Result relation over the flock's {!Flock.result_columns}. *)
val run : Qf_relational.Catalog.t -> Flock.t -> Qf_relational.Relation.t
