(** Grouping and aggregation over relations, with set semantics.

    Grouping a relation [r] by columns [keys] partitions the distinct tuples
    of [r]; the aggregate is then computed over each group's tuples.  Because
    relations are duplicate-free, [COUNT] counts distinct tuples per group —
    exactly the support count a query flock's filter needs. *)

(** Aggregate functions over a group.  The [string] argument names the column
    the aggregate reads.  [Count] counts whole tuples. *)
type func =
  | Count
  | Sum of string
  | Min of string
  | Max of string

val pp_func : Format.formatter -> func -> unit

(** [SUM] over the named column met a value that is not a number: an
    input error in the data, raised by {!eval}, {!add} and every grouping
    pass over a [Sum]. *)
exception Non_numeric of { column : string; value : Value.t }

(** [eval func schema tuples] computes the aggregate over a non-empty group.
    [Count] yields [Real (cardinal)]; [Sum]/[Min]/[Max] read the named
    column ([Min]/[Max] use {!Value.compare}; [Sum] requires numeric values
    and raises {!Non_numeric} on a string). *)
val eval : func -> Schema.t -> Tuple.t list -> Value.t

(** [group_by rel ~keys ~func] returns a list of
    [(key_tuple, aggregate_value)] pairs, one per distinct key, in an
    unspecified order.

    Above [par_threshold] tuples (default
    {!Qf_exec_pool.Pool.par_threshold}) on a pool of size > 1, rows are
    hash-partitioned by key across the pool's domains and each partition
    aggregates its own disjoint key set — same groups, same values (SUM
    may associate float additions differently; exact on integer-valued
    data).  Under an ambient governor whose budget cannot hold the group
    table, rows spill by key into temp runs that are grouped one at a
    time — again the same groups. *)
val group_by :
  ?pool:Qf_exec_pool.Pool.t ->
  ?par_threshold:int ->
  Relation.t ->
  keys:string list ->
  func:func ->
  (Tuple.t * Value.t) list

(** {1 The group table}

    The one grouping kernel: a code-keyed hash table from a group's key
    codes to its aggregate, filled one row at a time.  {!group_by} and
    {!group_filter} fill one per partition of a relation; the evaluator
    fills one from inside its probe loop, so a FILTER step counts its
    rows without ever tabulating them. *)

type table

(** [table func ~nkeys ~expected] is an empty table for rows of [nkeys]
    key codes, sized for about [expected] groups (it grows past that). *)
val table : func -> nkeys:int -> expected:int -> table

(** [find t keys] is the id of the group of the key codes [keys],
    opening a new group (id [groups t]) when there is none; groups are
    numbered from 0 in first-appearance order.  [t] does not keep
    [keys]. *)
val find : table -> int array -> int

(** [add t keys code] folds one row into its group: [Count] counts it,
    [Sum]/[Min]/[Max] take [code] as the row's measure (a {!Dict} code;
    ignored by [Count]).  Raises {!Non_numeric} when [Sum] meets a
    non-numeric value. *)
val add : table -> int array -> int -> unit

(** Number of groups. *)
val groups : table -> int

(** [key_code t g k] is group [g]'s [k]-th key code. *)
val key_code : table -> int -> int -> int

(** [value t g] is group [g]'s aggregate. *)
val value : table -> int -> Value.t

(** [filter_table t ~rows_in ~keys ~threshold] is the FILTER over a
    filled table, as {!group_filter_report} computes it over a relation:
    the groups whose aggregate {!passes}, as a relation whose columns are
    named [keys], and the candidate (group) count.  [rows_in] is the
    number of rows the table counted, reported on the
    [aggregate.group_filter] span.

    With [slack], a group passes when its aggregate passes [threshold -.
    slack codes], [codes] being its key codes in [keys] order: the
    Sec. 3.4 union test, where the other branches may still add up to
    [slack]. *)
val filter_table :
  ?slack:(int array -> float) ->
  table ->
  rows_in:int ->
  keys:string list ->
  threshold:float ->
  Relation.t * int

(** [passes ~threshold v] — the FILTER's one threshold test: [v >= threshold]
    compared numerically.  A non-numeric aggregate (the [MIN]/[MAX] of a
    string column) never passes. *)
val passes : threshold:float -> Value.t -> bool

(** [group_filter rel ~keys ~func ~threshold] keeps the keys whose aggregate
    value {!passes} the threshold and returns them as a relation over
    [keys]; a non-numeric aggregate never passes.  This is the FILTER
    step's core operation.  Parallel above the threshold, like
    {!group_by}. *)
val group_filter :
  ?pool:Qf_exec_pool.Pool.t ->
  ?par_threshold:int ->
  Relation.t ->
  keys:string list ->
  func:func ->
  threshold:float ->
  Relation.t

(** Like {!group_filter}, but also returns the number of candidate
    groups (the distinct key count before the threshold test — exactly
    [cardinal (project rel keys)], without the extra projection pass).
    Plan execution reports this as the a-priori candidate count.
    [slack] as in {!filter_table}. *)
val group_filter_report :
  ?pool:Qf_exec_pool.Pool.t ->
  ?par_threshold:int ->
  ?slack:(int array -> float) ->
  Relation.t ->
  keys:string list ->
  func:func ->
  threshold:float ->
  Relation.t * int
