(** Sideways-information-passing reducers.

    A reducer is the exact set of the values appearing in one column of a
    relation — typically the parameter column of a computed [ok] step —
    as a bitset over their dictionary codes.  Codes are dense, so
    membership is one bounds check and one bit test, and the set takes at
    most one bit per code {!Dict} holds.  The evaluator tests a
    parameter's candidate values against its reducer the moment it binds
    the parameter, and drops the ones the reducer rejects: they can only
    fail the [ok] subgoal the reducer was built from.  Membership is
    exact, so what a reducer prunes does not depend on the order in
    which values were encoded. *)

type t

(** [of_column rel col] is the set of the values in column [col].  Counts
    one [sip.reducer_built] when observability is enabled. *)
val of_column : Relation.t -> string -> t

(** The set of the given dictionary codes.  Counts one
    [sip.reducer_built] when observability is enabled. *)
val of_codes : int array -> t

(** Membership of a dictionary code.  A code past every member's,
    including one assigned after the reducer was built, is no member. *)
val mem : t -> int -> bool

(** The bitset itself: bit [c land 7] of byte [c lsr 3] is set when code
    [c] is a member, and a code whose byte lies past the end is no
    member.  For probe loops that test {!mem} inline. *)
val bits : t -> Bytes.t

(** [summarizes t rel] holds when [t] was built by {!of_column} from the
    current version of [rel], a one-column relation: then [mem t c] is
    exactly membership of the value coded [c] in [rel]. *)
val summarizes : t -> Relation.t -> bool
