(** Per-relation statistics for cost-based plan selection (System-R style).

    The optimizer (Sec. 4.3 of the paper) needs relation cardinalities and
    per-column distinct-value counts to estimate join sizes and the benefit
    of a candidate FILTER step. *)

type t

(** Summary of one column, as consumed by the abstract interpreter
    ({!Qf_analysis.Absint}): value range, distinct count, and the tuple
    count of the most frequent value. *)
type column_profile = {
  ndv : int;
  min_value : Value.t option;  (** [None] iff the relation is empty *)
  max_value : Value.t option;
  max_frequency : int;
      (** tuples carried by the most frequent value; 0 if empty *)
}

(** Scan a relation and collect statistics. *)
val of_relation : Relation.t -> t

val cardinality : t -> int

(** Distinct values in the named column.  Raises [Not_found] on an unknown
    column. *)
val distinct : t -> string -> int

(** [count_at_least t col c] — the exact number of distinct values of [col]
    appearing in at least [c] tuples.  This is the survivor count of a
    single-subgoal COUNT filter step, the "substantial gathering of
    statistics to support the filter/don't filter decision" of the paper's
    Ex. 4.4.  Computed from the per-value frequency distribution collected
    at construction.  Raises [Not_found] on an unknown column. *)
val count_at_least : t -> string -> int -> int

(** [values_at_least frequencies ~threshold] — how many entries of a
    descending frequency distribution (see {!frequencies}) are
    [>= threshold]: the survivor count of a COUNT filter step whose
    per-value supports are [frequencies].  A fractional threshold rounds
    up, as [COUNT >= 2.4] keeps exactly the counts [>= 3]. *)
val values_at_least : int array -> threshold:float -> int

(** The frequency distribution of a column: per-value tuple counts, sorted
    descending.  The array is the statistics' own, not a copy: do not
    mutate it. *)
val frequencies : t -> string -> int array

(** Range/ndv/max-frequency profile of the named column.  Raises
    [Not_found] on an unknown column. *)
val column_profile : t -> string -> column_profile
