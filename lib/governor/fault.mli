(** Deterministic fault injection.

    Storage and governor code marks its failure-prone operations with
    {!point}.  Normally a point is a single load.  A test harness
    first runs a scenario in counting mode to learn how many points the
    run crosses, then replays it once per point with that point armed:
    the armed point raises {!Injected}, simulating a block-write error, a
    budget trip, or any other mid-operation failure, at a deterministic
    program location.  Sweeping [k] over [1 .. count] therefore exercises
    a failure at {e every} counted operation of the scenario.

    The global mode is process-wide and not reentrant: the sweep drives
    one scenario at a time, on the one domain the engine runs on. *)

(** Raised by an armed injection point.  [point] is the site label,
    [index] the 1-based position in the run's point sequence. *)
exception Injected of { point : string; index : int }

(** Mark a failure-prone operation.  Off mode: one load. *)
val point : string -> unit

(** [with_count f] runs [f] with counting enabled; returns [f ()]'s
    result and the number of points crossed.  Resets the mode on exit. *)
val with_count : (unit -> 'a) -> 'a * int

(** [with_inject ~at f] runs [f] with the [at]-th crossed point (1-based)
    armed to raise {!Injected}.  Returns [f]'s outcome — normal result or
    the exception it raised — plus the number of points crossed.  Resets
    the mode on exit. *)
val with_inject : at:int -> (unit -> 'a) -> ('a, exn) result * int
