(** The one size model (paper Sec. 4.3): per-predicate statistics and the
    System-R match estimates read off them.

    The evaluator's join order ({!Eval.order_body}), the cost model
    ([Qf_core.Cost]) and the row bound of the abstract interpreter
    ([Qf_analysis.Absint]) all size a subgoal here, so the order the
    executor runs, the order [Cost] prices and the order [Absint] bounds
    along rest on the same numbers by construction.

    An environment wraps a catalog's shared statistics cache
    ({!Qf_relational.Catalog.stats}): building one copies nothing, and a
    predicate's profile is resolved on its first lookup.  An {e overlay}
    ({!add}) holds the outputs of plan steps that are not materialized
    yet: [Cost] adds its estimated outputs. *)

(** One predicate's sizes.  Every array has one entry per column
    position. *)
type profile = {
  rows : float;
  ndv : float array;  (** distinct values per column *)
  max_frequency : float array;
      (** tuples carrying a column's most frequent value *)
  frequencies : int array array;
      (** per-value tuple counts, descending; empty when unknown (a step
          output) *)
}

type t

(** The environment of a catalog's relations, with an empty overlay. *)
val of_catalog : Qf_relational.Catalog.t -> t

(** [add t name p] overlays [p] as the profile of [name], shadowing any
    relation of that name.  [t] is unchanged; the two environments share
    the profiles resolved from the catalog. *)
val add : t -> string -> profile -> t

(** The profile of a step output with [rows] rows and the given distinct
    counts per column.  Its frequencies are unknown.  A one-column output
    is a set of values, so its max frequency is [min 1 rows]; a wider one
    gets [rows]. *)
val output : rows:float -> float list -> profile

(** The overlaid profile of a name, else the profile of the catalog's
    relation; [None] when neither exists. *)
val find : t -> string -> profile option

(** [expected_matches t bound atom]: the expected tuples of [atom]'s
    relation matching one binding of the keys in [bound]
    ({!Ast.binding_key}s): |R| divided by the distinct count (at least 1)
    of each column holding a constant or a bound term, assuming
    independence.  Raises [Failure] on a predicate [t] does not know. *)
val expected_matches : t -> string list -> Ast.atom -> float

(** [max_matches ?pinned t bound atom]: an upper bound on those tuples:
    [min |R|] over the max frequencies of the columns holding a constant,
    a bound term, or an unbound term [pinned] (default none) says is
    fixed to one value, and at most 1 when every argument is bound (a
    relation is a set).  [infinity] on a predicate [t] does not know. *)
val max_matches :
  ?pinned:(Ast.term -> bool) -> t -> string list -> Ast.atom -> float

(** [param_ndv t atoms p]: the smallest distinct count among the columns
    where parameter [p] occurs in [atoms] (a rule's or a query's positive
    subgoals); [infinity] when it occurs in none of a known predicate. *)
val param_ndv : t -> Ast.atom list -> string -> float

(** [values_at_least t atom p ~threshold]: how many values of the column
    holding parameter [p] (its first occurrence in [atom]) occur in at
    least [threshold] tuples, read off the column's frequency vector
    ({!Qf_relational.Statistics.values_at_least}); [None] when [p] is
    not an argument or the frequencies are unknown.  With [atom] a
    step's only positive subgoal, this is the survivor count of a COUNT
    filter on [p]. *)
val values_at_least :
  t -> Ast.atom -> string -> threshold:float -> float option
