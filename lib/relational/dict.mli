(** The process-wide value dictionary backing the columnar layout.

    Every distinct {!Value.t} (under {!Value.equal} — so [Int 1] and
    [Real 1.0] stay distinct, matching tuple set semantics) maps to one
    small integer code; columnar relations store codes, and code equality
    is then exactly value equality.  The dictionary extends the existing
    string interning: {!Value.str} already canonicalizes strings, so
    encode probes compare interned strings pointer-first.

    Codes index an append-only array.  The dictionary is plain global
    state with no locks: the engine runs on one domain. *)

(** The code for [v], assigning a fresh one on first sight. *)
val encode : Value.t -> int

(** The code already assigned to [v], if any.  Never assigns one, so
    {!size} does not move: a value with no code occurs in no relation. *)
val find_opt : Value.t -> int option

(** The value for a code previously returned by an encode.  Unchecked:
    an out-of-range code raises [Invalid_argument]. *)
val decode : int -> Value.t

(** Number of codes assigned so far. *)
val size : unit -> int
