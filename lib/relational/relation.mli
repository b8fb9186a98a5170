(** Set-semantics relations.

    A relation is a schema plus a set of tuples of matching arity.  Insertion
    of a duplicate tuple is a no-op, so every relation is duplicate-free — a
    requirement of the query-flocks formalism (the paper's claims fail under
    bag semantics).

    Every kernel reads a relation through its columnar snapshot
    ({!codes}): a {!Chunkrel.t} of dictionary-encoded code arrays.  A
    hash set of {!Tuple.t}s backs insertion and membership ({!add},
    {!mem}, {!equal}); each form is built lazily from the other when
    first needed, and both describe the same tuple set. *)

type t

(** An empty, mutable relation with the given schema. *)
val create : Schema.t -> t

(** Wrap a columnar chunk whose rows are {e known distinct} (kernel
    outputs: filtered subsets, deduplicated projections, group keys).  The tuple table is built lazily if ever needed.  Raises
    [Invalid_argument] on an arity mismatch with the schema. *)
val of_chunkrel : Schema.t -> Chunkrel.t -> t

(** The columnar snapshot of the current version, built from the tuple
    table on first demand and cached until the next mutation.  The chunk
    is immutable; parallel kernels read it from worker domains. *)
val codes : t -> Chunkrel.t

(** Build the columnar snapshot now (load boundaries call this so the
    first kernel does not pay the encoding mid-query). *)
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

(** [add rel tup] inserts [tup]; duplicates are ignored.  Raises
    [Invalid_argument] on an arity mismatch. *)
val add : t -> Tuple.t -> unit

val mem : t -> Tuple.t -> bool
val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

(** Tuples in an unspecified order. *)
val to_list : t -> Tuple.t list

(** Tuples sorted by {!Tuple.compare}; convenient for golden tests. *)
val to_sorted_list : t -> Tuple.t list

val of_list : Schema.t -> Tuple.t list -> t

(** Convenience: build from lists of value lists. *)
val of_values : string list -> Value.t list list -> t

(** [project rel cols] projects (with duplicate elimination) onto [cols].
    Runs on [pool] (default: the shared pool) when the relation has at
    least [par_threshold] tuples (default {!Qf_exec_pool.Pool.par_threshold})
    and the pool has size > 1; otherwise sequential.  The result set is
    identical either way. *)
val project :
  ?pool:Qf_exec_pool.Pool.t -> ?par_threshold:int -> t -> string list -> t

(** Distinct values appearing in a column. *)
val column_values : t -> string -> Value.t list

(** Approximate in-memory size, for the catalog's LRU byte budgets.  A
    function of cardinality and arity only, never of which forms are
    materialized — so budget-driven eviction does not depend on which
    kernels touched the relation. *)
val approx_bytes : t -> int

(** [equal a b] — same set of tuples (schemas must have equal arity). *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
