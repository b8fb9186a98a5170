(** Itemsets: sorted, duplicate-free arrays of integer item ids. *)

type t = int array

(** Normalize an arbitrary list into an itemset. *)
val of_list : int list -> t

val to_list : t -> int list
val size : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool

(** [mem item set] — binary search. *)
val mem : int -> t -> bool

(** [subset a b] — is every item of [a] in [b]?  Linear merge. *)
val subset : t -> t -> bool

(** [union a b] and [minus a b] keep the sorted-set invariant. *)
val union : t -> t -> t

val minus : t -> t -> t

(** All subsets of size [size t - 1], in order of the dropped position. *)
val drop_one : t -> t list

(** [join a b]: if [a] and [b] (both of size k) share their first k-1 items,
    their union of size k+1; the a-priori candidate-generation join. *)
val join : t -> t -> t option


module Table : Hashtbl.S with type key = t
