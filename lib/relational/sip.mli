(** Sideways-information-passing reducers.

    A reducer is a compact, over-approximate membership summary of the
    values appearing in one column of a relation — typically the
    parameter column of a materialized [ok] step.  Downstream consumers
    (the evaluator's binding extension, {!filter}) test candidate
    values against the reducer {e before} doing the expensive work; a
    negative answer is definitive (no false negatives), a positive answer
    may be a false positive, so a reducer may only ever be used to skip
    work that a later exact operation (the ok-subgoal join itself) would
    discard anyway.

    Two representations, chosen by cardinality at {!of_column}:

    - an {e exact} dictionary-code set below {!exact_cutoff} — membership
      is exact, so pre-filtering with it is itself exact;
    - a {e Bloom filter} above the cutoff.  Bits are derived from
      {!Value.hash} of the {e decoded} value, never from the raw code:
      code assignment depends on the order in which relations were
      loaded and encoded, while value hashes do not — this keeps every
      derived row count independent of load order, which the
      determinism suite checks. *)

type t

(** Representation switch: columns with at most this many distinct codes
    build exact sets. *)
val exact_cutoff : int

(** [of_column rel col] summarizes the distinct values of column [col].
    Counts one [sip.reducer_built] when observability is enabled. *)
val of_column : Relation.t -> string -> t

(** Exact code-set reducer over the given codes (no cutoff applied). *)
val exact_of_codes : int array -> t

(** Bloom reducer over the given codes (no cutoff applied) — exposed so
    property tests can force the approximate representation. *)
val bloom_of_codes : int array -> t

(** [true] for the exact representation (membership has no false
    positives). *)
val is_exact : t -> bool

(** Membership of a dictionary code.  Never a false negative. *)
val mem : t -> int -> bool

(** [filter rel ~pos t] keeps the rows whose column [pos] passes the
    reducer — the materialized pre-reduction of a base relation.  The
    result is exact when [t] is, a superset of the exact reduction
    otherwise. *)
val filter : Relation.t -> pos:int -> t -> Relation.t
