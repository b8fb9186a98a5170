module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
module Tuple = Qf_relational.Tuple
module Value = Qf_relational.Value

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

(* [subset a b]: both tuples ascending; is every value of [a] in [b]? *)
let tuple_subset a b =
  let la = Tuple.arity a and lb = Tuple.arity b in
  let rec loop i j =
    if i >= la then true
    else if j >= lb then false
    else
      let c = Value.compare (Tuple.get a i) (Tuple.get b j) in
      if c = 0 then loop (i + 1) (j + 1)
      else if c > 0 then loop i (j + 1)
      else false
  in
  loop 0 0

let maximal levels =
  let rec walk = function
    | [] -> []
    | [ last ] ->
      List.map (fun tup -> last.k, tup) (Relation.to_sorted_list last.itemsets)
    | current :: (next :: _ as rest) ->
      let supersets = Relation.to_list next.itemsets in
      let here =
        List.filter_map
          (fun tup ->
            if List.exists (fun sup -> tuple_subset tup sup) supersets then None
            else Some (current.k, tup))
          (Relation.to_sorted_list current.itemsets)
      in
      here @ walk rest
  in
  walk levels
