(** Heap files: an unordered sequence of records over a {!Pager}.

    Records append into the last page, spilling to a fresh page when full.
    Page 0 is reserved for the file header (currently just the schema
    record), so data pages start at 1.

    A file holds one of two record formats, and is read back in the
    format it was written in:
    - tuple records ({!append}, {!iter}, {!to_relation}): {!Codec}
      tuples, self-describing and valid across processes — the format of
      [Qf_storage.Store]'s files;
    - code records ({!append_codes}, {!to_chunk}): one row of dictionary
      codes ({!Dict}) as fixed-width little-endian u32s.  Codes mean
      something only to the process that wrote them, so this is the
      format of files that never outlive it (spill runs). *)

type t

(** Create a new heap file at [path] storing relations of the given schema.
    Truncates any existing file.  Raises [Failure] if the schema record
    exceeds a page. *)
val create : ?capacity:int -> string -> Schema.t -> t

(** Open an existing heap file; reads the schema from the header page. *)
val open_existing : ?capacity:int -> string -> t

val schema : t -> Schema.t

(** Append one tuple.  Raises [Invalid_argument] on arity mismatch or a
    record larger than a page. *)
val append : t -> Tuple.t -> unit

(** [append_codes t cols i] appends row [i] of the code columns [cols]
    as one code record, with no allocation.  Raises [Invalid_argument],
    appending nothing, on an arity mismatch or on a code that is negative
    or [>= 2^32]. *)
val append_codes : t -> int array array -> int -> unit

(** Every code record, in storage order, as a columnar chunk.  Raises
    [Failure] on a record that is not a code record of the file's
    arity. *)
val to_chunk : t -> Chunkrel.t

(** Scan every record in storage order. *)
val iter : (Tuple.t -> unit) -> t -> unit

(** Materialize the whole file as an in-memory relation (set semantics:
    duplicates stored on disk collapse). *)
val to_relation : t -> Relation.t

(** Append every tuple of a relation. *)
val append_relation : t -> Relation.t -> unit

(** Pager cache statistics: (hits, misses, evictions). *)
val cache_stats : t -> int * int * int

(** Pages in the file, header included. *)
val page_count : t -> int

val flush : t -> unit
val close : t -> unit

(** Close without flushing — for spill runs about to be deleted. *)
val discard : t -> unit
