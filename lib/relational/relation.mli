(** Set-semantics relations.

    A relation is a schema plus a set of tuples of matching arity.  Insertion
    of a duplicate tuple is a no-op, so every relation is duplicate-free — a
    requirement of the query-flocks formalism (the paper's claims fail under
    bag semantics).

    The set is stored once, as dictionary-code columns (see {!Dict}) in
    insertion order, which every kernel reads through a {!codes}
    snapshot.  The row API ({!add}, {!mem}, {!iter}, {!equal}) encodes or
    decodes {!Tuple.t}s at its boundary. *)

type t

(** An empty, mutable relation with the given schema. *)
val create : Schema.t -> t

(** Wrap a columnar chunk whose rows are {e known distinct} (kernel
    outputs: filtered subsets, deduplicated projections, group keys).
    The columns are adopted without a copy and never written: a later
    {!add} reallocates.  Raises [Invalid_argument] on an arity mismatch
    with the schema. *)
val of_chunkrel : Schema.t -> Chunkrel.t -> t

(** The columnar snapshot of the current version: [{nrows = cardinal;
    cols}] over the live column arrays, without a copy.  Later insertions
    write only past row [nrows] or into fresh arrays, so the snapshot
    never changes. *)
val codes : t -> Chunkrel.t

(** Does nothing: a relation is always in its columnar form.  Kept
    because [perfbench/qfbench.ml] still calls it. *)
val prepare : t -> unit

(** A process-unique identity, assigned at {!create}.  Together with
    {!version} it keys the catalog's index cache. *)
val id : t -> int

(** Monotonic modification counter: bumped on every insertion that
    actually changes the tuple set.  Cached indexes built against an
    older version are stale. *)
val version : t -> int

val schema : t -> Schema.t
val arity : t -> int
val cardinal : t -> int
val is_empty : t -> bool

(** [add rel tup] encodes and inserts [tup]; duplicates are ignored.
    Raises [Invalid_argument] on an arity mismatch. *)
val add : t -> Tuple.t -> unit

(** [add_codes rel codes] is {!add} for a row already encoded (by a
    bulk loader under {!Dict.with_encoder}); [codes] is copied. *)
val add_codes : t -> int array -> unit

(** [add_all ?unless dst src] adds every row of [src] (positionally)
    that is not in [unless], as code rows: no decoding or encoding. *)
val add_all : ?unless:t -> t -> t -> unit

(** Membership without encoding: a tuple holding a value the dictionary
    has never seen is not a member, and {!Dict.size} does not grow. *)
val mem : t -> Tuple.t -> bool

(** [iter] and [fold] visit the rows in insertion order, decoding each. *)
val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

(** Tuples in an unspecified order. *)
val to_list : t -> Tuple.t list

(** Tuples sorted by {!Tuple.compare}; convenient for golden tests. *)
val to_sorted_list : t -> Tuple.t list

val of_list : Schema.t -> Tuple.t list -> t

(** Convenience: build from lists of value lists. *)
val of_values : string list -> Value.t list list -> t

(** [project rel cols] projects (with duplicate elimination) onto [cols]. *)
val project : t -> string list -> t

(** Distinct values appearing in a column. *)
val column_values : t -> string -> Value.t list

(** Approximate in-memory size, for the catalog's LRU byte budgets.  A
    function of cardinality and arity only, never of whether the row set
    is built — so budget-driven eviction does not depend on which kernels
    touched the relation. *)
val approx_bytes : t -> int

(** [equal a b] — same set of tuples (schemas must have equal arity). *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
