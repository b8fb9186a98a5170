module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
module Tuple = Qf_relational.Tuple

type level = {
  k : int;
  itemsets : Qf_relational.Relation.t;
}

let prev_pred k = Printf.sprintf "frequent_%d" k

let frequent_levels ?(max_k = 9) catalog ~pred ~support =
  if max_k < 1 || max_k > 9 then
    invalid_arg "Sequence.frequent_levels: max_k must be in 1..9";
  if support < 1 then invalid_arg "Sequence.frequent_levels: support must be >= 1";
  let work = Catalog.copy catalog in
  (* The k-th flock: the k-item basket rule whose body also holds — the
     "depends on the previous flock" part — the previous level's result
     applied to every (k-1)-subset of the parameters.  That result already
     is the pruning, so the flock runs as its trivial plan. *)
  let rec levels acc k =
    let flock =
      Flock.make_exn
        [ Apriori_gen.basket_rule ~pred ~prev:(prev_pred (k - 1)) k ]
        (Filter.count_at_least support)
    in
    let itemsets = Plan_exec.run work (Plan.trivial flock) in
    if Relation.is_empty itemsets then List.rev acc
    else begin
      let acc = { k; itemsets } :: acc in
      (* A frequent (k+1)-set needs all k+1 of its k-subsets frequent. *)
      if k = max_k || Relation.cardinal itemsets < k + 1 then List.rev acc
      else begin
        Catalog.add work (prev_pred k) itemsets;
        levels acc (k + 1)
      end
    end
  in
  levels [] 1

module Tuple_set = Hashtbl.Make (Tuple)

(* Every k-subset of the (k+1)-item sets [next]: a k-item set has a
   frequent superset exactly when it is one of them. *)
let subsets_of next =
  let set = Tuple_set.create (4 * Relation.cardinal next) in
  Relation.iter
    (fun sup ->
      let k = Tuple.arity sup - 1 in
      for drop = 0 to k do
        let sub =
          Array.init k (fun i -> Tuple.get sup (if i < drop then i else i + 1))
        in
        Tuple_set.replace set (Tuple.of_array sub) ()
      done)
    next;
  set

let maximal levels =
  let rec walk = function
    | [] -> []
    | [ last ] ->
      List.map (fun tup -> last.k, tup) (Relation.to_sorted_list last.itemsets)
    | current :: (next :: _ as rest) ->
      let covered = subsets_of next.itemsets in
      let here =
        List.filter_map
          (fun tup ->
            if Tuple_set.mem covered tup then None else Some (current.k, tup))
          (Relation.to_sorted_list current.itemsets)
      in
      here @ walk rest
  in
  walk levels
