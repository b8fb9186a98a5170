type column_stats = {
  distinct : int;
  frequencies : int array;  (** per-value tuple counts, descending *)
  min_value : Value.t option;  (** None iff the relation is empty *)
  max_value : Value.t option;
}

type column_profile = {
  ndv : int;
  min_value : Value.t option;
  max_value : Value.t option;
  max_frequency : int;  (** tuples carried by the most frequent value; 0 if empty *)
}

type t = {
  cardinality : int;
  columns : (string * column_stats) list;
}

let minmax_fold (lo, hi) v =
  let lo = match lo with None -> Some v | Some l -> if Value.compare v l < 0 then Some v else lo in
  let hi = match hi with None -> Some v | Some h -> if Value.compare v h > 0 then Some v else hi in
  lo, hi

(* Dictionary codes are already canonical value ids, so per-column
   counting is an int-keyed histogram — no value hashing.  Min/max
   compare decoded values (the code order is assignment order, not the
   value order). *)
let of_relation rel =
  let schema = Relation.schema rel in
  let chunk = Relation.codes rel in
  let n = chunk.Chunkrel.nrows in
  let columns =
    List.mapi
      (fun i col ->
        let codes = chunk.Chunkrel.cols.(i) in
        let counts : (int, int) Hashtbl.t = Hashtbl.create 64 in
        for r = 0 to n - 1 do
          let c = Array.unsafe_get codes r in
          match Hashtbl.find_opt counts c with
          | Some k -> Hashtbl.replace counts c (k + 1)
          | None -> Hashtbl.add counts c 1
        done;
        let frequencies =
          Hashtbl.fold (fun _ k acc -> k :: acc) counts []
          |> List.sort (fun a b -> Int.compare b a)
          |> Array.of_list
        in
        let range =
          Hashtbl.fold
            (fun code _ acc -> minmax_fold acc (Dict.decode code))
            counts (None, None)
        in
        let min_value, max_value = range in
        col, { distinct = Hashtbl.length counts; frequencies; min_value; max_value })
      (Schema.columns schema)
  in
  { cardinality = Relation.cardinal rel; columns }

let cardinality t = t.cardinality

let column t col =
  match List.assoc_opt col t.columns with
  | Some c -> c
  | None -> raise Not_found

let distinct t col = (column t col).distinct

let column_profile t col =
  let c = column t col in
  {
    ndv = c.distinct;
    min_value = c.min_value;
    max_value = c.max_value;
    max_frequency = (if Array.length c.frequencies = 0 then 0 else c.frequencies.(0));
  }

(* Frequencies are descending: binary search for the boundary.  Comparing
   as floats gives [>= ceil threshold] on the integer counts. *)
let values_at_least frequencies ~threshold =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if float_of_int frequencies.(mid) >= threshold then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length frequencies)

let count_at_least t col c =
  values_at_least (column t col).frequencies ~threshold:(float_of_int c)

let frequencies t col = (column t col).frequencies

