(** Intermediate predicates — the language extension sketched in the
    paper's Sec. 2.3: "To include patients with several diseases
    simultaneously, we would have to extend our query-flocks language to
    allow intermediate predicates (in particular, a predicate relating
    patients to the set of symptoms from all their diseases).  That
    extension is feasible ..."

    Views are parameter-free Datalog rules materialized before the flock
    runs; the flock's query then uses the view predicates like stored
    relations.  Views may be {e recursive} (e.g. transitive closure) as
    long as the program is stratified — evaluation is the semi-naive
    fixpoint of {!Qf_datalog.Fixpoint}. *)


(** Materialize the views into a copy of the catalog (the input catalog is
    untouched).  Runs {!check} first. *)
val materialize :
  Qf_relational.Catalog.t ->
  Qf_datalog.Ast.rule list ->
  (Qf_relational.Catalog.t, string) result
