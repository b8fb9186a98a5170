(** Filter conditions of query flocks.

    The paper's main results concern {e support-type} filters: a lower bound
    on an aggregate of the query's answer.  We support the four aggregates
    of the paper's "monotone filter conditions" discussion (Sec. 5):
    [COUNT] of answer tuples and [SUM]/[MIN]/[MAX] of a head column.  The
    comparison is always [>=] (a lower bound). *)

type agg = Qf_relational.Aggregate.func =
  | Count  (** number of distinct answer tuples *)
  | Sum of string  (** sum of a head column over distinct answer tuples *)
  | Min of string
  | Max of string

type t = { agg : agg; threshold : float }

val count_at_least : int -> t
val sum_at_least : string -> float -> t

(** A filter is monotone when [true] on a set implies [true] on every
    superset: [COUNT >= s], [MAX >= s], and [SUM >= s] {e assuming
    non-negative summands} are monotone; [MIN >= s] is not.  Only monotone
    filters admit a-priori filter steps (the upper-bound argument needs
    monotonicity). *)
val is_monotone : t -> bool

(** The relational aggregate evaluating this filter over a tabulated
    relation, given the head column names of the query.  Raises [Failure]
    if the aggregate references a column that is not a head column. *)
val to_aggregate : t -> head_columns:string list -> Qf_relational.Aggregate.func

(** [holds t value] — does an aggregate outcome pass the filter?  This is
    {!Qf_relational.Aggregate.passes}: a non-numeric outcome never
    passes. *)
val holds : t -> Qf_relational.Value.t -> bool

(** Print in the paper's notation, e.g. [COUNT(answer.P) >= 20]; [head]
    names the answer predicate, [column] the aggregated head column (ignored
    for [Count], which prints the head predicate applied to a star). *)
val pp : head:string -> Format.formatter -> t -> unit

val equal : t -> t -> bool

(** Canonical rendering for memo signatures: the aggregate with its
    column replaced by the column's {e position} in [head_columns] (so
    α-equivalent steps with renamed head variables agree), plus the
    threshold.  [None] when the aggregated column is not a head column. *)
val signature : t -> head_columns:string list -> string option
