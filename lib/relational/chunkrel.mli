(** Columnar relation snapshots.

    A chunk stores [nrows] rows as one dictionary-encoded [int array] per
    attribute (see {!Dict}); code equality is value equality, so the hot
    kernels — index probes, grouping, duplicate elimination — run entirely
    over flat integer arrays with no per-row allocation.  Readers look at
    the first [nrows] entries of each column only, and those never
    change, so worker domains may read [cols] freely. *)

type t = {
  nrows : int;  (** explicit, so arity-0 relations keep their cardinality *)
  cols : int array array;  (** [arity] arrays of at least [nrows] codes *)
}

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

(** [gather t idxs] is the chunk of the rows of [t] at [idxs], in that
    order. *)
val gather : t -> int array -> t

(** [gather_cols cols idxs] gathers bare column arrays. *)
val gather_cols : int array array -> int array -> int array array

(** [distinct_rows cols nrows] returns the indices of the first
    occurrence of each distinct row (order of first appearance). *)
val distinct_rows : int array array -> int -> int array

(** Smallest power of two [>= max 16 n]. *)
val hash_capacity : int -> int

(** {1 Growable int buffers} — the kernels' output substrate, filled
    with no per-row boxing. *)
module Buf : sig
  type buf

  val create : int -> buf

  (** [wrap a n] is a buffer holding [a]'s first [n] entries, without a
      copy.  It never writes into [a]: the first {!push} reallocates. *)
  val wrap : int array -> int -> buf

  val push : buf -> int -> unit
  val length : buf -> int
  val get : buf -> int -> int
  val to_array : buf -> int array

  (** [backing b] is [b]'s storage array itself, without a copy: its
      first [length b] entries are the contents, the rest is spare
      capacity.  Later pushes never change the first [length b]
      entries. *)
  val backing : buf -> int array
end
