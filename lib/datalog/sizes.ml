module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
module Schema = Qf_relational.Schema
module Statistics = Qf_relational.Statistics

type profile = {
  rows : float;
  ndv : float array;
  max_frequency : float array;
  frequencies : int array array;
}

(* [resolved] memoizes the catalog's profiles; every overlay of one
   environment shares it. *)
type t = {
  catalog : Catalog.t;
  overlay : (string * profile) list;
  resolved : (string, profile) Hashtbl.t;
}

let of_catalog catalog = { catalog; overlay = []; resolved = Hashtbl.create 8 }
let add t name p = { t with overlay = (name, p) :: t.overlay }

let output ~rows ndv =
  let one_column = List.length ndv = 1 in
  {
    rows;
    ndv = Array.of_list ndv;
    max_frequency =
      Array.of_list
        (List.map (fun _ -> if one_column then Float.min 1. rows else rows) ndv);
    frequencies = Array.of_list (List.map (fun _ -> [||]) ndv);
  }

let of_statistics rel stats =
  let columns = Array.of_list (Schema.columns (Relation.schema rel)) in
  let frequencies = Array.map (Statistics.frequencies stats) columns in
  {
    rows = float_of_int (Statistics.cardinality stats);
    ndv = Array.map (fun c -> float_of_int (Statistics.distinct stats c)) columns;
    max_frequency =
      Array.map
        (fun f -> if Array.length f = 0 then 0. else float_of_int f.(0))
        frequencies;
    frequencies;
  }

let find t name =
  match List.assoc_opt name t.overlay with
  | Some _ as p -> p
  | None -> (
    match Hashtbl.find_opt t.resolved name with
    | Some _ as p -> p
    | None ->
      Option.map
        (fun rel ->
          let p = of_statistics rel (Catalog.stats t.catalog name) in
          Hashtbl.replace t.resolved name p;
          p)
        (Catalog.find_opt t.catalog name))

let is_bound bound = function
  | Ast.Const _ -> true
  | (Ast.Var _ | Ast.Param _) as arg -> List.mem (Ast.binding_key arg) bound

let expected_matches t bound (a : Ast.atom) =
  match find t a.pred with
  | None -> failwith ("Sizes: no statistics for predicate " ^ a.pred)
  | Some p ->
    snd
      (List.fold_left
         (fun (i, est) arg ->
           ( i + 1,
             if is_bound bound arg && i < Array.length p.ndv then
               est /. Float.max 1. p.ndv.(i)
             else est ))
         (0, p.rows) a.args)

let max_matches ?(pinned = fun _ -> false) t bound (a : Ast.atom) =
  match find t a.pred with
  | None -> infinity
  | Some p ->
    let _, m, all_bound =
      List.fold_left
        (fun (i, m, all_bound) arg ->
          let arg_bound = is_bound bound arg in
          let m =
            if (arg_bound || pinned arg) && i < Array.length p.max_frequency
            then Float.min m p.max_frequency.(i)
            else m
          in
          i + 1, m, all_bound && arg_bound)
        (0, p.rows, true) a.args
    in
    if all_bound then Float.min m 1. else m

let param_ndv t atoms param =
  List.fold_left
    (fun acc (a : Ast.atom) ->
      match find t a.pred with
      | None -> acc
      | Some p ->
        snd
          (List.fold_left
             (fun (i, acc) arg ->
               ( i + 1,
                 match arg with
                 | Ast.Param q when String.equal q param && i < Array.length p.ndv
                   ->
                   Float.min acc p.ndv.(i)
                 | Ast.Param _ | Ast.Var _ | Ast.Const _ -> acc ))
             (0, acc) a.args))
    infinity atoms

let values_at_least t (a : Ast.atom) param ~threshold =
  let position =
    List.find_index
      (function
        | Ast.Param q -> String.equal q param
        | Ast.Var _ | Ast.Const _ -> false)
      a.args
  in
  match position, find t a.pred with
  | Some i, Some p
    when i < Array.length p.frequencies && Array.length p.frequencies.(i) > 0 ->
    Some
      (float_of_int (Statistics.values_at_least p.frequencies.(i) ~threshold))
  | _ -> None
