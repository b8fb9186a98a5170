(** Spilling for the governed grouping pass: temp heap-file runs in the
    owning governor's spill directory (removed on every
    [Governor.with_ctx] exit, and eagerly by {!map_partitions}). *)

(** The ambient governor, when it has a finite budget: the runs whose
    memory {!governed} accounts for. *)
val budgeted : unit -> Qf_governor.Governor.t option

(** [governed ~need in_memory spill] — the budget gate: charge [need]
    bytes around [in_memory ()] when the ambient governor's budget allows
    (or when there is no governor / no finite budget), else run
    [spill g]. *)
val governed :
  need:int -> (unit -> 'a) -> (Qf_governor.Governor.t -> 'a) -> 'a

(** [map_partitions g rel ~keys ~need f] hash-partitions [rel]'s code
    rows by the columns [keys] into temp runs of code records (equal keys
    land in the same run; see {!Heap_file.append_codes}), each
    targeting about a quarter of [g]'s budget by the working-set estimate
    [need], clamped to [2, 256] runs.  It records the runs on [g]
    ([governor.spill.*]), then reads each run back as a relation (its rows
    are already distinct, so they are adopted without re-encoding) and
    applies [f] to it under a charge of [need run], in run order.  A run
    whose charge does not fit what is left of the budget is partitioned
    again the same way (with a different hash), at most three levels
    down, and [f] gets its runs in its place.  A run is deleted as soon
    as it is read back, and every run on every exit. *)
val map_partitions :
  Qf_governor.Governor.t ->
  Relation.t ->
  keys:string list ->
  need:(Relation.t -> int) ->
  (Relation.t -> 'a) ->
  'a list
