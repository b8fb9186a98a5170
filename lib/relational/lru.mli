(** Byte-budgeted LRU tables — the shared eviction policy behind the
    {!Catalog} index cache and subplan memo table.

    Each entry carries an approximate byte size supplied at {!add}; when
    the running total exceeds the budget, least-recently-{!find}ed (or
    added) entries are evicted until it fits again.  Recency is a
    monotone tick bumped on every hit and insertion, so eviction order is
    a deterministic function of the operation sequence — the property the
    determinism tests rely on.

    A budget of [0] disables the table entirely ({!add} is a no-op and
    {!find} always misses); [max_int] means unbounded.  The table itself
    is not synchronized — callers guard it with their own mutex, exactly
    as the catalog does for its caches. *)

type ('k, 'v) t

(** [create ~budget] — an empty table allowed [budget] bytes. *)
val create : budget:int -> ('k, 'v) t

val budget : ('k, 'v) t -> int

(** Change the budget; shrinking evicts immediately.  Returns the number
    of entries evicted. *)
val set_budget : ('k, 'v) t -> int -> int

(** Lookup; a hit refreshes the entry's recency. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [add t k v ~bytes] inserts (or replaces) the binding and evicts down
    to the budget.  Returns the number of entries evicted — including the
    new entry itself when [bytes] alone exceeds the budget.  A no-op
    returning [0] when the budget is [0]. *)
val add : ('k, 'v) t -> 'k -> 'v -> bytes:int -> int

(** Number of live entries. *)
val length : ('k, 'v) t -> int

(** Sum of the live entries' declared sizes. *)
val total_bytes : ('k, 'v) t -> int

(** Evictions performed since {!create} (by {!add} and {!set_budget}). *)
val evictions : ('k, 'v) t -> int

val clear : ('k, 'v) t -> unit
