(** Atomic values stored in relations.

    A value is an integer, a string, or a real number.  Values of different
    kinds never compare equal under {!equal} (set semantics distinguishes
    [Int 1] from [Real 1.0]), but {!compare} still orders numeric values of
    different kinds numerically so that arithmetic subgoals such as
    [$x < 3.5] behave as a user expects. *)

type t =
  | Int of int
  | Str of string
  | Real of float

(** Total order on values.  Within a kind the order is the natural one;
    across kinds, [Int] and [Real] are ordered numerically (ties broken with
    [Int] first) and every number precedes every string. *)
val compare : t -> t -> int

(** Structural equality: values of different kinds are never equal.
    Pointer-first: interned strings (see {!str}) usually decide with a
    physical comparison. *)
val equal : t -> t -> bool

(** [str s] is [Str (intern s)]: the canonical copy of [s], shared by
    every value built through {!str} or {!of_string}.  Equality between
    interned strings is (usually) a pointer comparison. *)
val str : string -> t

(** Number of distinct strings interned so far (for diagnostics). *)
val interned_count : unit -> int

(** Hash compatible with {!equal}. *)
val hash : t -> int

(** Numeric interpretation of a value, for SUM/MIN/MAX aggregates and
    arithmetic comparisons.  Strings have no numeric interpretation. *)
val to_float : t -> float option

(** [is_numeric v] is [true] for [Int] and [Real] values. *)
val is_numeric : t -> bool

(** The text of a real as a Datalog program or a CSV file writes it:
    exact ([float_of_string] reads back the same float) and, when finite,
    with a [.] before any exponent, e.g. [1.0], [0.1234567], [1.0e+20]. *)
val real_to_string : float -> string

(** Print the value as it would appear in a Datalog program: strings are
    quoted, integers are printed plainly, reals by {!real_to_string}. *)
val pp : Format.formatter -> t -> unit

(** [to_string v] is {!pp}'s text. *)
val to_string : t -> string

(** Parse a literal as it appears in source text or CSV: an integer, then a
    float, then (fallback) a string.  Surrounding double quotes on a string
    are stripped. *)
val of_string : string -> t
