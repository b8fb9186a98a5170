(** A catalog maps predicate names to stored relations.

    Datalog evaluation resolves every relational subgoal through a catalog.
    A catalog also owns three caches — statistics ({!stats}), built
    indexes ({!index}) and the subplan memo ({!memo_find}) — under one
    sharing rule: each is a single table shared by the catalog and all its
    {!copy}s, and each entry is validated against the
    ({!Relation.id}, {!Relation.version}) pair of the relations it was
    computed from, so rebinding a name or mutating a relation makes the
    entry a miss, never a stale answer. *)

type t

val create : unit -> t

(** Register (or replace) a relation under a predicate name. *)
val add : t -> string -> Relation.t -> unit

val remove : t -> string -> unit

(** Raises [Failure] with a helpful message if absent. *)
val find : t -> string -> Relation.t

val find_opt : t -> string -> Relation.t option
val mem : t -> string -> bool

(** Names in an unspecified order. *)
val names : t -> string list

(** Statistics for the relation bound to a name, computed on first use
    and cached under the name with the relation's (id, version).  Raises
    [Failure] if the name is unbound. *)
val stats : t -> string -> Statistics.t

(** [index ?order t rel positions] is [Index.build ?order rel positions],
    memoized.  Entries are keyed by ({!Relation.id}, positions, order), so
    the ordered and unordered indexes of one (relation, positions) are
    two entries of one LRU budget, and tagged with the
    {!Relation.version} they were built against: mutating the relation
    makes the entry stale and the next lookup rebuilds it.  The relation
    need not be registered in the catalog. *)
val index :
  ?order:int * Index.direction -> t -> Relation.t -> int list -> Index.t

(** [(hits, misses)] of the index cache since creation (or the last
    {!reset_index_stats}). *)
val index_stats : t -> int * int

(** Entries evicted from the index cache's LRU byte budget since
    creation.  The budget comes from [QF_INDEX_BUDGET] (bytes, with
    optional [k]/[m]/[g] suffix, or ["unbounded"]; default 128 MiB). *)
val index_evictions : t -> int

(** Override the index cache's byte budget ([0] disables caching). *)
val set_index_budget : t -> int -> unit

val reset_index_stats : t -> unit

(** {1 Subplan memo}

    A cross-level memo table for FILTER-step outputs and for the
    optimizer's costed plans, keyed by opaque strings.  A step's key is
    its canonical signature ([qf_core]'s [Stepsig]); a plan list's key is
    its flock's exact text ([qf_core]'s [Optimizer]).  Both embed the
    (id, version) pair of every relation the entry was computed from, so
    mutation or rebinding invalidates by key change — the index cache's
    version discipline.  Bounded by one LRU byte budget from
    [QF_MEMO_BUDGET] (same syntax as [QF_INDEX_BUDGET]; default 64 MiB;
    [0] disables it, and every plan step is then computed).  Shared
    across {!copy}s, like the index cache. *)

(** A memo value.  Step outputs are stored through {!memo_find} and
    {!memo_add} under a constructor of the catalog's own; other libraries
    add their own constructors and use {!memo_find_entry} and
    {!memo_add_entry}. *)
type entry = ..

(** Whether the memo stores anything (its budget is not [0]). *)
val memo_enabled : t -> bool

(** Lookup of a step output by signature.  Counts a hit or miss
    (per-catalog stats and, when observability is enabled, the
    [memo.hit]/[memo.miss] Obs counters).  At budget [0] it always misses
    silently. *)
val memo_find : t -> string -> Relation.t option

(** Store a step output under its signature; LRU-evicts past the budget
    (counted in {!memo_stats} and the [memo.evict] Obs counter).  A
    no-op at budget [0]. *)
val memo_add : t -> string -> Relation.t -> unit

(** Lookup of any entry.  Counts nothing: {!memo_stats} and the
    [memo.hit]/[memo.miss] counters are about step outputs only. *)
val memo_find_entry : t -> string -> entry option

(** Store any entry, declared as [bytes] (the key's length is added);
    it shares the budget and the eviction count with step outputs.  A
    no-op at budget [0]. *)
val memo_add_entry : t -> string -> entry -> bytes:int -> unit

(** [(hits, misses, evictions)] since creation.  Hits and misses are
    {!memo_find}'s; evictions count every kind of entry. *)
val memo_stats : t -> int * int * int

(** Override the byte budget ([0] disables; shrinking evicts). *)
val set_memo_budget : t -> int -> unit

(** Drop every memo entry (budget and stats are kept). *)
val memo_clear : t -> unit

(** Current resident bytes (approximate, as declared at insertion). *)
val memo_bytes : t -> int

(** A shallow copy: the new catalog shares relations but registering in one
    does not affect the other.  Plan execution uses this to add temporary
    [ok] relations without polluting the base catalog.  All three caches
    are shared with the copy: their entries are validated by relation
    identity and version, so sharing is sound and lets working copies
    reuse each other's statistics, indexes and step results. *)
val copy : t -> t
