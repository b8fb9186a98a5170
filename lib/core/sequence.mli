(** Sequences of query flocks (paper Sec. 2.2, footnote 2):

    "finding something more complex, like the set of {e maximal} sets of
    items that appear in at least c baskets (regardless of the cardinality
    of the set of items) ... would be expressed as a sequence of query
    flocks for increasing cardinalities, with each flock depending on the
    result of the previous flock."

    {!frequent_levels} runs exactly that sequence: the k-th flock is the
    k-item basket flock whose body is pruned by the (k−1)-th flock's result
    relation (applied to every (k−1)-subset of its parameters, the
    parameter-symmetry trick of footnote 3).  Each flock runs through
    {!Plan_exec} as its trivial plan, so its step is memoized like any
    plan's: a repeated sequence on the same catalog is served by the
    catalog's memo, each level's stored result keeping the next level's
    signature matching.  {!maximal} then keeps the itemsets with no
    frequent superset. *)

type level = {
  k : int;
  itemsets : Qf_relational.Relation.t;
      (** frequent k-item sets; columns [$1..$k], values ascending within
          each tuple *)
}

(** Run the flock sequence until a level comes back empty, a level k has
    fewer than k+1 sets (so level k+1 must be empty), or [max_k] is
    reached (default 9 — the basket-flock limit).  The relation [pred]
    must have columns [(BID, Item)].  Raises [Invalid_argument] on a
    [support] below 1. *)
val frequent_levels :
  ?max_k:int ->
  Qf_relational.Catalog.t ->
  pred:string ->
  support:int ->
  level list

(** Itemsets (as tuples, with their level) that have no frequent superset
    one level up.  Sorted by level, then tuple order. *)
val maximal : level list -> (int * Qf_relational.Tuple.t) list
