(** A store is a directory of relations — the "conventional relational
    system" the paper assumes the data lives in (Sec. 1.4).  The directory
    itself is the catalog; each relation [name] is two files:
    - [<dir>/<name>.qfv], its {!Qf_relational.Codec} value table: each
      distinct value once;
    - [<dir>/<name>.qfh], a {!Qf_relational.Heap_file}: the schema, then
      one code record per row, each code an index into the value table.

    Relation names are restricted to [[A-Za-z0-9_-]+] so they are safe as
    file names. *)

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
    on an unsafe name.  A save that raises removes both of the relation's
    files. *)
val save : t -> string -> Qf_relational.Relation.t -> unit

(** Load one relation: give each value of its table a
    {!Qf_relational.Dict} code once, and remap the code columns through
    that array.  Raises [Failure] if the relation is absent, if it has no
    value table or a heap file {!Qf_relational.Heap_file.open_existing}
    refuses (an old-format store, or a damaged one: to import again), or
    if it is corrupt — which includes a value stored twice in the table, a
    code past it and a row stored twice. *)
val load : t -> string -> Qf_relational.Relation.t

(** [with_codes store name f] is [f values file], for streaming relation
    [name] without loading it: [values] is its value table and [file] its
    code records, which [f] must check against [values].  The file is
    closed when [f] returns or raises.  Raises [Failure] as {!load}
    does. *)
val with_codes :
  t ->
  string ->
  (Qf_relational.Value.t array -> Qf_relational.Heap_file.t -> 'a) ->
  'a

val mem : t -> string -> bool

(** Load every relation into a fresh catalog — the bridge to the query
    stack. *)
val to_catalog : t -> Qf_relational.Catalog.t

(** Save every relation of a catalog. *)
val of_catalog : string -> Qf_relational.Catalog.t -> t
