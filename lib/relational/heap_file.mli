(** Heap files: an unordered sequence of code records over a {!Pager}.

    Records append into the last page, spilling to a fresh page when full.
    Page 0 is reserved for the file header (the schema, as a {!Codec}
    value table of column names), so data pages start at 1.

    A code record is one row of integer codes as fixed-width
    little-endian u32s, one per column.  What a code means is the
    writer's business: spill runs write the process's {!Dict} codes, and
    [Qf_storage.Store] writes indices into a value table stored beside
    the file.

    {!open_existing}, {!iter_codes} and {!to_chunk} raise [Failure] on a
    corrupt file: a malformed page or header, a record that is not a code
    record of the file's arity, or a page holding more records than fit
    in it. *)

type t

(** Create a new heap file at [path] storing relations of the given schema.
    Truncates any existing file.  Raises [Failure] if the schema record
    exceeds a page. *)
val create : ?capacity:int -> string -> Schema.t -> t

(** Open an existing heap file; reads the schema from the header page. *)
val open_existing : ?capacity:int -> string -> t

val schema : t -> Schema.t

(** [append_codes t cols i] appends row [i] of the code columns [cols]
    as one code record, with no allocation.  Raises [Invalid_argument],
    appending nothing, on an arity mismatch or on a code that is negative
    or [>= 2^32]. *)
val append_codes : t -> int array array -> int -> unit

(** [iter_codes f t] calls [f row] for every code record in storage
    order, reading page by page.  [row] holds the record's codes and is
    reused from one call to the next: copy it to keep it. *)
val iter_codes : (int array -> unit) -> t -> unit

(** Every code record, in storage order, as a columnar chunk. *)
val to_chunk : t -> Chunkrel.t

(** Pager cache statistics: (hits, misses, evictions). *)
val cache_stats : t -> int * int * int

(** Pages in the file, header included. *)
val page_count : t -> int

val close : t -> unit

(** Close without flushing — for spill runs about to be deleted. *)
val discard : t -> unit
