(** Heap files: a header, then a flat run of fixed-width code records.

    A code record is one row of integer codes as little-endian u32s, one
    per column.  What a code means is the writer's business: spill runs
    write the process's {!Dict} codes, and [Qf_storage.Store] writes
    indices into a value table stored beside the file.

    On disk a file is
    {v
    "QFHC"  u32 version  u64 record count  u32 schema length  schema
    count × (4 · arity) bytes of codes
    v}
    where the schema is a {!Codec} value table of column names.  The
    header is written by {!close}; until then the file's own handle knows
    its count.  Records are appended through one block buffer and written
    a block at a time through the file's one output channel; a scan reads
    them back a block at a time through an input channel of its own.

    {!open_existing}, {!iter_codes} and {!to_chunk} raise [Failure] on a
    corrupt file: a wrong magic or version, a malformed header, or a
    length other than the header's plus its count of records.  An I/O
    error is [Sys_error]. *)

type t

(** Create a new heap file at [path] storing relations of the given
    schema.  Truncates any existing file. *)
val create : string -> Schema.t -> t

(** Open an existing heap file for reading; a missing file is a
    [Failure], and nothing is created. *)
val open_existing : string -> t

val schema : t -> Schema.t

(** [append_codes t cols i] appends row [i] of the code columns [cols]
    as one code record, with no allocation.  Raises [Invalid_argument],
    appending nothing, on an arity mismatch, on a code that is negative
    or [>= 2^32], and on a file opened for reading. *)
val append_codes : t -> int array array -> int -> unit

(** [iter_codes f t] calls [f row] for every code record in storage
    order, reading a block at a time.  [row] holds the record's codes and
    is reused from one call to the next: copy it to keep it. *)
val iter_codes : (int array -> unit) -> t -> unit

(** Every code record, in storage order, as a columnar chunk. *)
val to_chunk : t -> Chunkrel.t

(** Bytes of the code records appended so far: the file's body, without
    its header. *)
val body_bytes : t -> int

(** Write what is buffered and the header, and close the file.  The file
    is closed even if a write raises. *)
val close : t -> unit

(** Close without writing — for spill runs about to be deleted. *)
val discard : t -> unit
