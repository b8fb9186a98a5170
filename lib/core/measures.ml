module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
module Schema = Qf_relational.Schema
module Value = Qf_relational.Value
module Aggregate = Qf_relational.Aggregate
module Sip = Qf_relational.Sip
module Dict = Qf_relational.Dict

type rule = {
  antecedent : Value.t;
  consequent : Value.t;
  pair_support : int;
  confidence : float;
  interest : float;
}

module Vtbl = Hashtbl.Make (Value)

let count v = match Value.to_float v with Some f -> int_of_float f | None -> 0

let pair_rules catalog ~pred ~support ~min_confidence =
  if support < 1 then invalid_arg "Measures.pair_rules: support must be >= 1";
  let baskets = Catalog.find catalog pred in
  let columns = Schema.columns (Relation.schema baskets) in
  let bid_col = List.hd columns and item_col = List.nth columns 1 in
  let n_baskets = List.length (Relation.column_values baskets bid_col) in
  (* Item supports: distinct baskets per item, grouped once; the frequent
     items' codes come from the same pass. *)
  let item_support = Vtbl.create 256 in
  let frequent = ref [] in
  List.iter
    (fun (key, v) ->
      let item = Qf_relational.Tuple.get key 0 and n = count v in
      Vtbl.replace item_support item n;
      if n >= support then
        Option.iter (fun c -> frequent := c :: !frequent) (Dict.find_opt item))
    (Aggregate.group_by baskets ~keys:[ item_col ] ~func:Aggregate.Count);
  let support_of item = Option.value (Vtbl.find_opt item_support item) ~default:0 in
  (* The a-priori trick, by hand (the paper's Sec. 1.3 rewrite): one
     exact reducer over the frequent items' codes, which the evaluator
     tests as it binds each item of the pair, so no pair with an
     infrequent item is ever formed. *)
  let frequent = Sip.of_codes (Array.of_list !frequent) in
  let tab =
    Qf_datalog.Eval.tabulate
      ~sip:[ "$1", frequent; "$2", frequent ]
      catalog
      (List.hd (Apriori_gen.basket_flock ~pred ~k:2 ~support).query)
  in
  let counts = Aggregate.group_by tab ~keys:[ "$1"; "$2" ] ~func:Aggregate.Count in
  let directed =
    List.concat_map
      (fun (key, v) ->
        let n = count v in
        if n < support then []
        else begin
          let a = Qf_relational.Tuple.get key 0
          and b = Qf_relational.Tuple.get key 1 in
          [ a, b, n; b, a, n ]
        end)
      counts
  in
  List.filter_map
    (fun (a, b, n) ->
      let sa = support_of a and sb = support_of b in
      if sa = 0 || sb = 0 || n_baskets = 0 then None
      else begin
        let confidence = float_of_int n /. float_of_int sa in
        if confidence < min_confidence then None
        else
          Some
            {
              antecedent = a;
              consequent = b;
              pair_support = n;
              confidence;
              interest =
                confidence /. (float_of_int sb /. float_of_int n_baskets);
            }
      end)
    directed
  |> List.sort (fun x y -> Float.compare y.interest x.interest)

let pp_rule ppf r =
  Format.fprintf ppf "%a -> %a  support %d  confidence %.2f  interest %.2f"
    Value.pp r.antecedent Value.pp r.consequent r.pair_support r.confidence
    r.interest
