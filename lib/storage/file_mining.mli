(** The file-based setting of the paper's Sec. 1.4:

    "We cannot dispute the demonstrated fact that ad-hoc file processing
    algorithms can outperform, often significantly, DBMS-based algorithms
    ... The algorithms for mining and the optimizations we develop can be
    carried over to a file-based, rather than DBMS-based setting, with
    corresponding speedup."

    This module is that carry-over for the market-basket flock: a streaming
    two-pass a-priori over a [(BID, Item)] relation of a {!Store} that
    never materializes the relation.  It counts over the store's own codes
    ({!Store.with_codes}), decoding only the surviving pairs.

    + pass 1 streams the file counting per-item basket occurrences;
    + pass 2 streams again, keeping {e only} the items that met the
      threshold (the a-priori trick is what bounds memory), accumulates
      each basket's surviving items, and counts the pairs.

    Benchmark E11 compares it against the DBMS-style path (load into the
    catalog, run the optimized flock plan) on the same stored relation. *)

type pair_count = {
  item1 : Qf_relational.Value.t;  (** [item1 < item2] under {!Value.compare} *)
  item2 : Qf_relational.Value.t;
  support : int;
}

(** [frequent_pairs store name ~support] — pairs of items co-occurring in
    at least [support] distinct baskets of the relation [name].  Its
    schema must have exactly two columns ([BID], [Item]), or
    [Invalid_argument] is raised; rows may appear in any order and may
    contain duplicates (both are deduplicated per basket).  Result sorted
    by (item1, item2).  Raises [Failure] as {!Store.load} does, and on a
    code past the value table. *)
val frequent_pairs : Store.t -> string -> support:int -> pair_count list

(** Same result as a relation with columns [$1; $2] — directly comparable
    to the flock's output. *)
val frequent_pairs_relation :
  Store.t -> string -> support:int -> Qf_relational.Relation.t
