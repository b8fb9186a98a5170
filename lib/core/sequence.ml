module Eval = Qf_datalog.Eval
module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
module Schema = Qf_relational.Schema
module Tuple = Qf_relational.Tuple
module Value = Qf_relational.Value
module Aggregate = Qf_relational.Aggregate

type level = {
  k : int;
  itemsets : Qf_relational.Relation.t;
}

let param i = string_of_int i
let prev_pred k = Printf.sprintf "frequent_%d" k

let frequent_levels ?(max_k = 9) catalog ~pred ~support =
  if max_k < 1 || max_k > 9 then
    invalid_arg "Sequence.frequent_levels: max_k must be in 1..9";
  let threshold = float_of_int support in
  let work = Catalog.copy catalog in
  let baskets = Catalog.find work pred in
  let item_col = List.nth (Schema.columns (Relation.schema baskets)) 1 in
  (* Level 1 directly: items in at least [support] baskets. *)
  let level1 =
    let rel =
      Aggregate.group_filter baskets ~keys:[ item_col ]
        ~func:Aggregate.Count ~threshold
    in
    (* Rename the column to $1 so every level shares the convention. *)
    let renamed = Relation.create (Schema.of_list [ "$1" ]) in
    Relation.add_all renamed rel;
    renamed
  in
  let rec levels acc k prev =
    if Relation.is_empty prev || k > max_k then List.rev acc
    else begin
      Catalog.add work (prev_pred (k - 1)) prev;
      if k > 1 && Relation.cardinal prev < k then List.rev acc
      else begin
        (* The k-th flock: the k-item basket rule whose body also holds —
           the "depends on the previous flock" part — the previous level's
           result applied to every (k-1)-subset of the parameters. *)
        let rule = Apriori_gen.basket_rule ~pred ~prev:(prev_pred (k - 1)) k in
        let next, _, _ =
          Eval.filter_query work [ rule ]
            ~keys:(List.init k (fun i -> "$" ^ param (i + 1)))
            ~func:Aggregate.Count ~threshold
        in
        if Relation.is_empty next then List.rev acc
        else levels ({ k; itemsets = next } :: acc) (k + 1) next
      end
    end
  in
  if Relation.is_empty level1 then []
  else levels [ { k = 1; itemsets = level1 } ] 2 level1

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
