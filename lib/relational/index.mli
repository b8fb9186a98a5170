(** Hash indexes on a subset of a relation's columns.

    An index is a radix/bucket-chained table over a relation's columnar
    snapshot ({!Relation.codes}): [heads.(h land mask)] starts a chain
    through [next] of the rows whose key codes hash to [h] (hash =
    {!Chunkrel.hash_key} over [key_cols], equivalently
    {!Chunkrel.hash_codes} of the key-code array in position order);
    [-1] terminates.  [key_cols] are the indexed columns of [chunk], in
    the order of the positions the index was built on.  Probes compare
    raw dictionary codes and never allocate.

    Indexes are built eagerly and are not maintained under later
    mutation of the source relation — the {!Catalog} index cache pairs
    each index with the relation version it was built against and
    rebuilds when stale.  A built index is immutable, so concurrent
    probes from several domains are safe; the evaluator's parallel
    binding extension relies on this. *)

type t = {
  heads : int array;
  next : int array;
  mask : int;
  key_cols : int array array;
  chunk : Chunkrel.t;
}

(** [build rel positions] indexes [rel] on the columns at [positions]. *)
val build : Relation.t -> int list -> t

(** Approximate in-memory size for the catalog's LRU byte budget; a
    function of row and key-column counts only, like
    {!Relation.approx_bytes}. *)
val approx_bytes : t -> int
