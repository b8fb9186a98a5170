(** A store is a directory of heap files — the "conventional relational
    system" the paper assumes the data lives in (Sec. 1.4).

    On disk, each relation [name] lives in [<dir>/<name>.qfh]; the directory
    itself is the catalog.  Relation names are restricted to
    [[A-Za-z0-9_-]+] so they are safe as file names. *)

type t

(** Open (creating the directory if needed) a store. *)
val open_dir : string -> t

(** Open an existing store without creating anything.  Raises [Failure]
    if [dir] is missing or not a directory. *)
val open_existing : string -> t

val dir : t -> string

(** Relation names present, sorted. *)
val list : t -> string list

(** [save store name rel] (re)writes a relation.  Raises [Invalid_argument]
    on an unsafe name. *)
val save : t -> string -> Qf_relational.Relation.t -> unit

(** Load one relation.  Raises [Failure] if absent or corrupt. *)
val load : t -> string -> Qf_relational.Relation.t

val mem : t -> string -> bool

(** Load every relation into a fresh catalog — the bridge to the query
    stack. *)
val to_catalog : t -> Qf_relational.Catalog.t

(** Save every relation of a catalog. *)
val of_catalog : string -> Qf_relational.Catalog.t -> t
