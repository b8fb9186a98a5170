(** Columnar relation snapshots.

    A chunk stores [nrows] rows as one dictionary-encoded [int array] per
    attribute (see {!Dict}); code equality is value equality, so the hot
    kernels — index probes, grouping, duplicate elimination — run entirely
    over flat integer arrays with no per-row allocation.  A chunk is
    immutable once built (the optional decoded-row cache is filled at most
    once, by the coordinating domain, before any parallel fan-out reads
    it); worker domains may read [cols] freely. *)

type t = {
  nrows : int;  (** explicit, so arity-0 relations keep their cardinality *)
  cols : int array array;  (** [arity] arrays of [nrows] codes *)
  mutable rows_cache : Tuple.t array option;
      (** decoded rows, filled lazily by {!rows} *)
}

(** Encode an array of (distinct) tuples, all of arity [arity].  The
    tuples double as the decoded-row cache. *)
val of_tuples : arity:int -> Tuple.t array -> t

(** The decoded rows (cached; treat as read-only). *)
val rows : t -> Tuple.t array

(** Decode a single row. *)
val tuple_at : t -> int -> Tuple.t

(** {1 Hashing}

    One mixing function shared by every code kernel (index build, probe,
    grouping, dedup), so an index built by one module can be probed by
    another: fold {!mix} over the key codes in key-position order. *)

val mix : int -> int -> int

(** [hash_key key_cols i] folds {!mix} over [key_cols.(k).(i)]. *)
val hash_key : int array array -> int -> int

(** [hash_codes codes] — same fold over an explicit key-code array
    (must agree with {!hash_key} for equal keys). *)
val hash_codes : int array -> int

(** {1 Row selection} *)

(** [gather t idxs] is the chunk of the rows of [t] at [idxs] (in that
    order), reusing the decoded-row cache when present. *)
val gather : t -> int array -> t

(** [gather_cols cols idxs] gathers bare column arrays. *)
val gather_cols : int array array -> int array -> int array array

(** [distinct_rows cols nrows] returns the indices of the first
    occurrence of each distinct row (order of first appearance). *)
val distinct_rows : int array array -> int -> int array

(** Smallest power of two [>= max 16 n]. *)
val hash_capacity : int -> int

(** {1 Growable int buffers} — the parallel kernels' per-chunk output
    substrate; chunks are merged by {!Buf.blit_into} with no per-row
    boxing. *)
module Buf : sig
  type buf

  val create : int -> buf
  val push : buf -> int -> unit
  val length : buf -> int
  val get : buf -> int -> int
  val to_array : buf -> int array

  (** [backing b] is [b]'s storage array itself, without a copy: its
      first [length b] entries are the contents, the rest is spare
      capacity.  For a caller that adopts a finished buffer; pushing to
      [b] afterwards may overwrite the adopted array. *)
  val backing : buf -> int array

  (** [blit_into b dst pos] copies [b]'s contents into [dst] at [pos]
      and returns the next free position. *)
  val blit_into : buf -> int array -> int -> int
end
