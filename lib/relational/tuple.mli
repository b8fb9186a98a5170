(** Tuples: immutable sequences of {!Value.t} with a hash cached at
    construction.

    Tuples are the currency of the row API ({!Relation.add},
    {!Relation.iter}); relations themselves store dictionary codes, and
    every kernel, spilling included, works on those codes.  The cached
    hash gives {!equal} a constant-time negative fast path.  Construction
    always copies or freshly allocates the backing array; callers of
    {!of_array} transfer ownership and must not mutate the array
    afterwards. *)

type t

val arity : t -> int

(** [get t i] is the value at position [i].  Raises [Invalid_argument]
    out of range. *)
val get : t -> int -> Value.t

val compare : t -> t -> int
val equal : t -> t -> bool

(** The hash cached at construction (compatible with {!equal}). *)
val hash : t -> int

(** [append a b] concatenates two tuples. *)
val append : t -> t -> t

(** [of_array values] takes ownership of [values] — do not mutate it
    afterwards. *)
val of_array : Value.t array -> t

val of_list : Value.t list -> t
val to_list : t -> Value.t list
val to_seq : t -> Value.t Seq.t
val pp : Format.formatter -> t -> unit
