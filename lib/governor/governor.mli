(** Per-query resource governor: byte-accounted memory budgets, wall-clock
    deadlines with cooperative cancellation, and the temp-file lifecycle
    backing spill-to-disk kernels.

    A governor is installed around a query with {!with_ctx}; the kernels
    and executors consult the ambient governor through {!current},
    {!check}, and the charge API.  When no governor is installed every
    entry point is one load, so ungoverned runs pay nothing.

    Accounting is cooperative and approximate — at chunk/hash-table
    granularity, using the same byte sizing as the [Lru] caches
    ([Relation.approx_bytes]) — which is exactly what a spill decision
    needs: the point is to bound working sets to the budget's order of
    magnitude and to fail with a {e typed} error instead of
    [Out_of_memory] when even spilling cannot help.

    Resource faults are ordinary exceptions, never error codes:
    {!Over_budget}, {!Deadline_exceeded}, {!Cancelled}.  All three leave
    the catalog and every relation untouched (kernels publish results
    only after completing), and {!with_ctx} removes the query's spill
    directory on every exit. *)

(** A memory charge that does not fit the budget even after spilling. *)
exception Over_budget of { requested : int; used : int; budget : int }

(** The wall-clock deadline passed a {!check}. *)
exception Deadline_exceeded of { elapsed : float; timeout : float }

(** {!cancel} was called; raised at the next {!check}. *)
exception Cancelled

type t

type stats = {
  peak_bytes : int;  (** high-water mark of charged bytes *)
  spill_partitions : int;  (** spill runs written by partitioned kernels *)
  spilled_bytes : int;  (** code-record bytes written to spill runs *)
  spilled_rows : int;  (** tuples routed through spill runs *)
}

(** [create ()] — a governor with byte budget [mem_budget] (default
    [max_int] = unbounded, which still tracks usage and peak) and
    wall-clock timeout [timeout_s] (default none).  The deadline clock
    starts at {!with_ctx}, not here. *)
val create : ?mem_budget:int -> ?timeout_s:float -> unit -> t

(** Parse a byte budget: plain bytes, or with a [k]/[m]/[g] suffix, or
    ["unbounded"]/["inf"] for [max_int].  [None] on malformed input. *)
val budget_of_string : string -> int option

(** Install [g] as the ambient governor for [f]'s duration (saving and
    restoring any enclosing governor), start its deadline clock, and on
    {e every} exit remove its spill directory and re-emit its peak as the
    [governor.peak_bytes] gauge (when observability is on). *)
val with_ctx : t -> (unit -> 'a) -> 'a

(** The ambient governor, if one is installed. *)
val current : unit -> t option

val budget : t -> int
val used : t -> int
val stats : t -> stats

(** Request cancellation: the next {!check} raises {!Cancelled}.  The
    engine runs on one domain, so this is called from code the query
    itself runs, or before it starts. *)
val cancel : t -> unit

(** Cooperative checkpoint: raises {!Cancelled} or {!Deadline_exceeded}
    when the ambient governor says so; a no-op (one load) when no
    governor is installed.  Called at kernel loop heads and executor
    step boundaries. *)
val check : unit -> unit

(** [charge g n] accounts [n] bytes; raises {!Over_budget} (leaving usage
    unchanged) when the budget would be exceeded. *)
val charge : t -> int -> unit

(** [try_charge g n] — [charge] that returns [false] instead of raising;
    the kernels' spill trigger. *)
val try_charge : t -> int -> bool

(** Return [n] previously charged bytes. *)
val release : t -> int -> unit

(** Record a spill event ([governor.spill.*] counters when observability
    is on; always visible in {!stats}). *)
val note_spill : t -> partitions:int -> bytes:int -> rows:int -> unit

(** A fresh file path inside the query's private spill directory
    ([qf_spill.<pid>.<n>] under the system temp directory), created on
    first use and removed by {!with_ctx} on every exit.  Raises
    [Sys_error], naming the directory and the OS error, when the directory
    cannot be created. *)
val fresh_spill_path : t -> string
