(** What is left of the worker pool: the engine runs on one domain.

    Kept only for perfbench's [pool.*] metrics, as [Relation.prepare]
    is; delete it with them. *)

type t

(** The one pool. *)
val default : unit -> t

(** Always 1. *)
val size : t -> int

(** [max_int]: no kernel dispatches. *)
val par_threshold : unit -> int
