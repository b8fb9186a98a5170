(** The file-based setting of the paper's Sec. 1.4:

    "We cannot dispute the demonstrated fact that ad-hoc file processing
    algorithms can outperform, often significantly, DBMS-based algorithms
    ... The algorithms for mining and the optimizations we develop can be
    carried over to a file-based, rather than DBMS-based setting, with
    corresponding speedup."

    This module is that carry-over for the market-basket flock: a streaming
    two-pass a-priori over a [(BID, Item)] heap file that never
    materializes the relation —

    + pass 1 streams the file counting per-item basket occurrences;
    + pass 2 streams again, keeping {e only} the items that met the
      threshold (the a-priori trick is what bounds memory), accumulates
      each basket's surviving items, and counts the pairs.

    Benchmark E11 compares it against the DBMS-style path (load into the
    catalog, run the optimized flock plan) on the same file. *)

type pair_count = {
  item1 : Qf_relational.Value.t;  (** [item1 < item2] under {!Value.compare} *)
  item2 : Qf_relational.Value.t;
  support : int;
}

(** [frequent_pairs file ~support] — pairs of items co-occurring in at
    least [support] distinct baskets.  The file's schema must have exactly
    two columns ([BID], [Item]); rows may appear in any order and may
    contain duplicates (both are deduplicated per basket).  Result sorted
    by (item1, item2). *)
val frequent_pairs : Qf_relational.Heap_file.t -> support:int -> pair_count list

(** Same result as a relation with columns [$1; $2] — directly comparable
    to the flock's output. *)
val frequent_pairs_relation :
  Qf_relational.Heap_file.t -> support:int -> Qf_relational.Relation.t
