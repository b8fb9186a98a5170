module Ast = Qf_datalog.Ast
module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation

type choice = {
  plan : Plan.t;
  param_sets : string list list;
  cost : float;
}

let default_param_sets flock =
  let params = Flock.params flock in
  let singletons = List.map (fun p -> [ p ]) params in
  if List.length params >= 2 then singletons @ [ params ] else singletons

(* All subsets of a list, smallest first. *)
let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
    let without = subsets rest in
    without @ List.map (fun s -> x :: s) without

let search ?param_sets catalog flock =
  let sets =
    match param_sets with Some s -> s | None -> default_param_sets flock
  in
  if not (Filter.is_monotone flock.Flock.filter) then
    [ { plan = Plan.trivial flock; param_sets = []; cost = 0. } ]
  else begin
    let env = Cost.of_catalog catalog in
    let selection = `Cheapest env in
    (* Keep only parameter sets every rule has a safe subquery for, each
       with its step, chosen once; every subset's plan reuses them. *)
    let viable =
      List.filter_map
        (fun set ->
          match Apriori_gen.param_set_step ~selection flock set with
          | Ok step -> Some (set, step)
          | Error _ -> None)
        sets
    in
    let choices =
      List.filter_map
        (fun chosen ->
          match Apriori_gen.plan_of_steps flock (List.map snd chosen) with
          | Ok plan ->
            Some
              {
                plan;
                param_sets = List.map fst chosen;
                cost = Cost.estimate_plan env plan;
              }
          | Error _ -> None)
        (subsets viable)
    in
    List.sort (fun a b -> Float.compare a.cost b.cost) choices
  end

(* {1 The plan memo}

   A session re-asks for the same flocks over unchanged relations, so the
   costed list is kept in the catalog's memo.  The key is the flock's exact
   text, not its α-canonical signature, because the plans name the flock's
   own parameters.  It also holds the (id, version) of every predicate the
   rules read: the costs read no other relation's statistics. *)

type Catalog.entry += Plans of Flock.t * choice list

let plan_key catalog (flock : Flock.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b (Flock.to_string flock);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (r : Ast.rule) ->
      List.iter
        (function
          | Ast.Pos a | Ast.Neg a ->
            if not (Hashtbl.mem seen a.pred) then begin
              Hashtbl.add seen a.pred ();
              match Catalog.find_opt catalog a.pred with
              | Some rel ->
                Printf.bprintf b "|%s=%d.%d" a.pred (Relation.id rel)
                  (Relation.version rel)
              | None -> Printf.bprintf b "|%s=?" a.pred
            end
          | Ast.Cmp _ -> ())
        r.body)
    flock.query;
  Buffer.contents b

let enumerate ?param_sets catalog flock =
  if Option.is_some param_sets || not (Catalog.memo_enabled catalog) then
    search ?param_sets catalog flock
  else begin
    let key = plan_key catalog flock in
    match Catalog.memo_find_entry catalog key with
    | Some (Plans (stored, choices)) when Flock.equal stored flock -> choices
    | Some _ | None ->
      let choices = search catalog flock in
      Catalog.memo_add_entry catalog key
        (Plans (flock, choices))
        ~bytes:(Obj.reachable_words (Obj.repr choices) * (Sys.word_size / 8));
      choices
  end

let optimize ?param_sets catalog flock =
  match enumerate ?param_sets catalog flock with
  | [] -> Plan.trivial flock
  | best :: _ -> best.plan
