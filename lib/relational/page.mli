(** Slotted pages.

    A page is a fixed-size byte block laid out as:
    {v
    [u16 slot_count][u16 free_offset][slot directory ...][... free ...][records]
    v}
    The slot directory grows forward from the header, records grow backward
    from the end; [free_offset] is the end of the record area.  Each slot is
    a (u16 offset, u16 length) pair.  This is the classic heap-page layout
    every storage textbook describes; no deletion support (the flock system
    is read-mostly — relations are imported, then queried). *)

val size : int
(** 4096 bytes. *)

type t

(** A fresh empty page. *)
val create : unit -> t

(** Wrap raw bytes read from disk.  Raises [Failure] if the header is
    malformed or the length is not {!size}. *)
val of_bytes : bytes -> t

val to_bytes : t -> bytes

(** Number of records. *)
val count : t -> int

(** [add page record] appends a record; returns [false] (leaving the page
    unchanged) when it does not fit.  Raises [Invalid_argument] if the
    record could never fit even in an empty page. *)
val add : t -> string -> bool

(** [add_slice page buf off len] is {!add} for the record
    [Bytes.sub buf off len], copied straight from [buf] (which the caller
    may reuse at once). *)
val add_slice : t -> bytes -> int -> int -> bool

(** [get page i] — the [i]th record.  Raises [Invalid_argument] on a bad
    index. *)
val get : t -> int -> string

(** [iter_slices f page] calls [f bytes off len] for each record in slot
    order, where the record is [len] bytes of [bytes] from [off]: the
    page's own storage, with no copy.  [f] must not write into [bytes]
    or keep it past the call.

    {!get} and [iter_slices] raise [Failure] on a slot that points
    outside the page's record area. *)
val iter_slices : (bytes -> int -> int -> unit) -> t -> unit

(** Maximum record size storable in an empty page. *)
val max_record_size : int
