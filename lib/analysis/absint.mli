(** Abstract interpretation of flock conditions over an interval +
    equality-constraint domain seeded from per-column catalog statistics
    ({!Qf_relational.Statistics.column_profile}).

    The analyzer assigns every variable, parameter, and constant of a rule
    an {e interval} of possible {!Qf_relational.Value.t}s, seeds the
    intervals from the certified min/max of the columns the term occurs in,
    and propagates arithmetic subgoals to a fixpoint.  From the resulting
    abstract state it derives two kinds of certificates:

    - {e dead-code certificates}: a rule whose abstract state is provably
      unsatisfiable can return no answers, and a flock is empty when every
      rule is dead or a survivor bound built from each rule's certified
      row bound ([rows_bound], along the sizes of the one size model,
      {!Qf_datalog.Sizes}) is 0 — surfaced as [QF07x] diagnostics by
      {!check_program};
    - {e monotonicity certificates}: for [SUM] filters, whether the
      certified range of the summand column proves the non-negativity
      assumption behind {!Qf_core.Filter.is_monotone}
      ({!monotonicity}), strengthening the [QF061] verdict.

    Every verdict errs on the side of "don't know": intervals only shrink
    when the shrinking is provable from the catalog, bounds are infinite
    when a predicate is unknown, and dead-code verdicts are emitted only
    when unsatisfiability holds for {e every} database consistent with the
    catalog's statistics. *)

module Ast = Qf_datalog.Ast
module Value = Qf_relational.Value

(** {1 Interval domain} *)

(** One endpoint: the value and whether it is included; [None] is
    unbounded. *)
type bound = (Value.t * bool) option

(** The set of values [v] with [lo <= v <= hi] (strictness per endpoint).
    [{lo = None; hi = None}] is top. *)
type interval = { lo : bound; hi : bound }

val top : interval

(** Greatest lower bound (set intersection). *)
val meet : interval -> interval -> interval

(** Least upper bound (convex hull of the union). *)
val join : interval -> interval -> interval

(** Provably empty?  True only when emptiness holds over the {e dense}
    value order — [lo > hi], or [lo = hi] with a strict end — so the
    verdict is sound for every value kind. *)
val is_empty : interval -> bool

val singleton : Value.t -> interval

(** {1 Per-rule analysis} *)

(** Why a rule is certifiably dead. *)
type dead_reason =
  | Empty_relation of string  (** a positive subgoal's relation has no rows *)
  | Constant_out_of_range of string * Value.t
      (** (predicate, constant): the constant lies outside the column's
          certified [min, max] *)
  | Unsat_comparison of Ast.term * Ast.comparison * Ast.term
      (** an arithmetic subgoal can never hold given certified ranges *)
  | Empty_interval of string
      (** the fixpoint pinched a term's interval empty (term by
          {!Ast.binding_key}) *)

type rule_report = {
  dead : dead_reason option;
  intervals : (string * interval) list;
      (** final abstract state, keyed by {!Ast.binding_key}; constants
          omitted *)
  rows_bound : float;
      (** certified upper bound on distinct tabulated tuples of the rule;
          [infinity] when some predicate is unknown; [0.] when dead *)
}

(** Analyze one rule against the catalog's statistics.  Unknown
    predicates contribute top intervals and infinite bounds (sound, not
    precise). *)
val analyze_rule : Qf_relational.Catalog.t -> Ast.rule -> rule_report

(** {1 Monotonicity certificates} *)

type monotonicity =
  | Monotone  (** [COUNT]/[MAX]: monotone unconditionally (Sec. 5) *)
  | Monotone_sum_certified of string * Value.t
      (** [SUM(col)]: certified minimum of the summand column is the given
          non-negative value, so the non-negativity assumption holds on
          this catalog *)
  | Unverified_sum of string * Value.t option
      (** [SUM(col)]: the certified minimum is negative (witness value) or
          unknown ([None]); the monotonicity assumption is unverified *)
  | Non_monotone  (** [MIN]: never monotone *)

(** Certify the filter's monotonicity against the catalog: for [SUM],
    joins the summand column's certified interval across all rules of the
    query. *)
val monotonicity : Qf_relational.Catalog.t -> Qf_core.Flock.t -> monotonicity

(** {1 Lint integration: QF07x diagnostics}

    Dead-code and monotonicity findings over a located program, for
    [flockc lint --absint]:

    - [QF070] — an arithmetic subgoal is unsatisfiable under certified
      ranges (reported at the subgoal);
    - [QF071] — a positive subgoal can never match: empty relation or a
      constant outside the column's certified range (reported at the
      subgoal);
    - [QF072] — the whole flock is certifiably empty: every rule is dead,
      or the certified survivor bound falls below the threshold;
    - [QF073] — a [SUM] filter whose non-negativity assumption the catalog
      cannot certify ({!Unverified_sum}).

    Requires a catalog (the domain is seeded from its statistics); rules
    mentioning unknown predicates are skipped (QF020 already reports
    them). *)
val check_program :
  catalog:Qf_relational.Catalog.t ->
  Qf_core.Parse.located_program ->
  Diagnostic.t list
