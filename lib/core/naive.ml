module Ast = Qf_datalog.Ast
module Eval = Qf_datalog.Eval
module Value = Qf_relational.Value
module Relation = Qf_relational.Relation
module Schema = Qf_relational.Schema
module Tuple = Qf_relational.Tuple
module Catalog = Qf_relational.Catalog
module Aggregate = Qf_relational.Aggregate

module Value_set = Set.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

(* Values a parameter can take in one rule: intersection over its positive
   occurrences of the stored column's values. *)
let rule_domain catalog (r : Ast.rule) param =
  let occurrence_values =
    List.concat_map
      (fun (a : Ast.atom) ->
        let rel = Catalog.find catalog a.pred in
        let columns = Schema.columns (Relation.schema rel) in
        List.concat
          (List.mapi
             (fun i arg ->
               match arg with
               | Ast.Param p when String.equal p param ->
                 [ Value_set.of_list
                     (Relation.column_values rel (List.nth columns i)) ]
               | _ -> [])
             a.args))
      (Ast.positive_atoms r)
  in
  match occurrence_values with
  | [] -> Value_set.empty
  | first :: rest -> List.fold_left Value_set.inter first rest

let domains catalog (flock : Flock.t) =
  List.map
    (fun param ->
      let dom =
        List.fold_left
          (fun acc r -> Value_set.union acc (rule_domain catalog r param))
          Value_set.empty flock.query
      in
      param, Value_set.elements dom)
    (Flock.params flock)

let run ?(max_assignments = 2_000_000) catalog (flock : Flock.t) =
  Qf_obs.Obs.with_span "naive.run" @@ fun () ->
  let doms = domains catalog flock in
  let space =
    List.fold_left (fun acc (_, d) -> acc * max 1 (List.length d)) 1 doms
  in
  Qf_obs.Obs.set_attr "assignments" (Qf_obs.Obs.Int space);
  if space > max_assignments then
    invalid_arg
      (Printf.sprintf "Naive.run: %d assignments exceed the limit of %d" space
         max_assignments);
  let result = Relation.create (Schema.of_list (Flock.result_columns flock)) in
  let head_columns = Flock.head_columns flock in
  let func = Filter.to_aggregate flock.filter ~head_columns in
  let rec assign acc = function
    | [] ->
      Qf_governor.Governor.check ();
      let bindings = List.rev acc in
      let answer =
        List.fold_left
          (fun acc_rel rule ->
            let part = Eval.answers catalog ~bindings rule in
            match acc_rel with
            | None -> Some part
            | Some rel ->
              Relation.add_all rel part;
              Some rel)
          None flock.query
      in
      let answer = Option.get answer in
      if
        (not (Relation.is_empty answer))
        && Filter.holds flock.filter
             (Aggregate.eval func (Relation.schema answer)
                (Relation.to_list answer))
      then
        Relation.add result
          (Tuple.of_list (List.map (fun (_, v) -> v) bindings))
    | (param, dom) :: rest ->
      List.iter (fun v -> assign (("$" ^ param, v) :: acc) rest) dom
  in
  assign [] doms;
  Qf_obs.Obs.set_attr "rows_out" (Qf_obs.Obs.Int (Relation.cardinal result));
  result
