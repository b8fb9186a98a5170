(** A dependency-free [Domain]-based worker pool.

    A pool of size [s] represents a total parallelism of [s]: [s - 1]
    spawned worker domains plus the calling domain, which participates in
    every {!run_all}.  A pool of size 1 spawns nothing and runs every task
    inline, so sequential configurations pay no synchronization cost.

    The relational kernels ([Relation.project], [Aggregate.group_by],
    [Sip.filter], the Datalog evaluator's binding extension) fan work
    out over the {!default} pool when the input is large enough (see
    {!par_threshold}) and fall back to their sequential paths otherwise. *)

type t

(** [create ~size] makes a pool of parallelism [max 1 size].  Its
    [size - 1] worker domains are spawned lazily on the first multi-task
    {!run_all}, not here: an idle domain is not free (every minor-GC
    stop-the-world must rendezvous with it), so a pool that never
    dispatches — e.g. when {!par_threshold} keeps every kernel
    sequential on a host with no parallel headroom — costs nothing. *)
val create : size:int -> t

(** Total parallelism (workers + caller). *)
val size : t -> int

(** Join every worker domain.  Idempotent; the pool must not be used
    afterwards. *)
val shutdown : t -> unit

(** [run_all pool thunks] runs every thunk to completion — on the workers
    and the calling domain — and returns their results in input order.
    The first exception raised by any thunk is re-raised in the caller
    (after all thunks have finished). *)
val run_all : t -> (unit -> 'a) list -> 'a list

(** [run_chunks pool ~n f] splits [0, n)] into near-equal [~lo ~hi)
    ranges and runs [f] on each in parallel, returning per-chunk results
    in ascending-range order.  The chunk count is proportional to the
    pool size (a small oversubscription factor lets fast domains steal
    slack from stragglers); a size-1 pool gets exactly one chunk.
    Deterministic given deterministic [f]. *)
val run_chunks : t -> n:int -> (lo:int -> hi:int -> 'a) -> 'a list

(** The chunk boundaries {!run_chunks} uses (exposed for tests). *)
val chunks_of : size:int -> n:int -> (int * int) list

(** Pool size for the shared default pool: [QF_DOMAINS] when set to a
    positive integer, else [Domain.recommended_domain_count ()]. *)
val default_size : unit -> int

(** Input cardinality below which parallel kernels stay sequential.
    [QF_PAR_THRESHOLD] (positive integer) overrides — resolved when the
    default pool is created, so override-then-[set_default_size] takes
    effect and the per-call cost is a field read; otherwise the
    threshold is calibrated on first use — per pool size, cached — by
    measuring the pool's actual dispatch cost against a per-row work
    proxy, scaled by the winnable fraction [1 - 1/eff] where [eff] is
    [min (pool size) (hardware domain count)], and clamped to
    [1024, 2^20].  When [eff <= 1] (a pool no wider than one hardware
    thread, or any pool on a 1-core host) the threshold is [max_int]:
    with no parallel headroom a fan-out can only lose, so the kernels
    never dispatch. *)
val par_threshold : unit -> int

(** The shared pool, created lazily from {!default_size}. *)
val default : unit -> t

(** Replace the shared pool with one of the given size (shutting the old
    one down).  The benchmark's scaling sweeps use this. *)
val set_default_size : int -> unit
