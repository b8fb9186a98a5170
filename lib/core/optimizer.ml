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

let search catalog flock =
  if not (Filter.is_monotone flock.Flock.filter) then
    [ { plan = Plan.trivial flock; param_sets = []; cost = 0. } ]
  else begin
    let env = Qf_datalog.Sizes.of_catalog catalog in
    let selection = `Cheapest env in
    (* Keep only parameter sets every rule has a safe subquery for, each
       with its step, chosen once; every subset of their classes gives
       one plan, a class entering as one step. *)
    let viable =
      List.filter_map
        (fun set ->
          Result.to_option (Apriori_gen.param_set_step ~selection flock set))
        (default_param_sets flock)
    in
    let choices =
      List.filter_map
        (fun chosen ->
          match Apriori_gen.plan_of_classes flock chosen with
          | Ok plan ->
            Some
              {
                plan;
                param_sets = List.concat_map snd chosen;
                cost = Cost.estimate_plan env plan;
              }
          | Error _ -> None)
        (subsets (Apriori_gen.classes viable))
    in
    List.sort (fun a b -> Float.compare a.cost b.cost) choices
  end

(* {1 The plan memo}

   A session re-asks for the same flocks over unchanged relations, so the
   costed list is kept in the catalog's memo.  The plans name the flock's
   own parameters, so a hit must be the same flock, not an α-equivalent
   one: the key is a hash of the flock's rules and filter, and a hit is
   used only if its stored flock is {!Flock.equal} (a colliding flock is
   searched and replaces the entry).  The key also holds the (id,
   version) of every predicate the rules read: the costs read no other
   relation's statistics. *)

type Catalog.entry += Plans of Flock.t * choice list

let plan_key catalog (flock : Flock.t) =
  let hash =
    List.fold_left
      (fun h (r : Ast.rule) ->
        List.fold_left
          (fun h lit -> (h * 31) + Hashtbl.hash lit)
          ((h * 31) + Hashtbl.hash r.head)
          r.body)
      (Hashtbl.hash flock.filter) flock.query
  in
  let b = Buffer.create 64 in
  Buffer.add_string b "plans:";
  Buffer.add_string b (string_of_int hash);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (r : Ast.rule) ->
      List.iter
        (function
          | Ast.Pos a | Ast.Neg a ->
            if not (Hashtbl.mem seen a.pred) then begin
              Hashtbl.add seen a.pred ();
              Buffer.add_char b '|';
              Buffer.add_string b a.pred;
              match Catalog.find_opt catalog a.pred with
              | Some rel ->
                Buffer.add_char b '=';
                Buffer.add_string b (string_of_int (Relation.id rel));
                Buffer.add_char b '.';
                Buffer.add_string b (string_of_int (Relation.version rel))
              | None -> Buffer.add_string b "=?"
            end
          | Ast.Cmp _ -> ())
        r.body)
    flock.query;
  Buffer.contents b

let enumerate catalog flock =
  if not (Catalog.memo_enabled catalog) then search catalog flock
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

let optimize catalog flock =
  match enumerate catalog flock with
  | [] -> Plan.trivial flock
  | best :: _ -> best.plan
