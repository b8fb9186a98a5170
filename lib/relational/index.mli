(** Hash indexes on a subset of a relation's columns.

    An index is a radix/bucket-chained table over a relation's columnar
    snapshot ({!Relation.codes}): [heads.(h land mask)] starts a chain
    through [next] of the rows whose key codes hash to [h] (hash =
    {!Chunkrel.hash_key} over [key_cols], equivalently
    {!Chunkrel.hash_codes} of the key-code array in position order);
    [-1] terminates.  [key_cols] are the indexed columns of [chunk], in
    the order of the positions the index was built on.  Probes compare
    raw dictionary codes and never allocate.

    {b Ordered chains.}  An index built with [~order:(p, dir)] ranks the
    values of column [p] under {!Value.compare} (values that compare
    equal share a rank; rank [0] is the smallest value for [Ascending],
    the largest for [Descending]) and chains the rows in ascending rank,
    so every chain is sorted as a whole — rows of other keys that collide
    in its bucket included.  A walk checking a comparison of column [p]
    against a bound can then stop at the first row whose rank is past the
    bound's cut ({!cut_of_code}, {!cut_of_value}): every row before it
    passes the comparison, and every row after it fails, whatever its
    key.  A column holding both [Int] and [Real] values is not ranked
    (cross-kind [Value.compare] is not transitive there): [order] is then
    [None] and the chains are the unordered ones.  The ranking keeps
    memory linear in the rows and the column's distinct values.

    Indexes are built eagerly and are not maintained under later
    mutation of the source relation — the {!Catalog} index cache pairs
    each index with the relation version it was built against and
    rebuilds when stale.  A built index is immutable. *)

type direction = Ascending | Descending

type order = {
  direction : direction;
  rank : int array;  (** per row: its value's rank *)
  slot_code : int array;
      (** the column's distinct codes in an open-addressing table
          ({!Chunkrel.mix}-hashed, linear probing, [-1] empty, at most
          half full) *)
  slot_rank : int array;  (** the rank of [slot_code]'s code, per slot *)
  rep : int array;  (** one code per rank *)
}

type t = {
  heads : int array;
  next : int array;
  mask : int;
  key_cols : int array array;
  chunk : Chunkrel.t;
  order : order option;  (** chains in ascending rank, if ranked *)
}

(** [build ?order rel positions] indexes [rel] on the columns at
    [positions], with chains ordered by [order]'s column if given.  The
    ordered build is O(rows + d log d) for [d] distinct values. *)
val build : ?order:int * direction -> Relation.t -> int list -> t

(** [cut_of_value o ~inclusive v] is the number of ranks whose values
    lie strictly before [v] in [o]'s direction ([< v] ascending, [> v]
    descending), or also equal to it when [inclusive].  A row passes
    the comparison exactly when its rank is below the cut.  One binary
    search over the ranks, decoding a value per step. *)
val cut_of_value : order -> inclusive:bool -> Value.t -> int

(** [cut_of_code o ~inclusive c] is [cut_of_value] for the value coded
    [c]: one probe of the code table when [c] occurs in the column, else
    {!cut_of_value}. *)
val cut_of_code : order -> inclusive:bool -> int -> int

(** Approximate in-memory size for the catalog's LRU byte budget; a
    function of row and key-column counts and, for an ordered index, of
    the order arrays, like {!Relation.approx_bytes}. *)
val approx_bytes : t -> int
