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

let enumerate ?param_sets catalog flock =
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

let optimize ?param_sets catalog flock =
  match enumerate ?param_sets catalog flock with
  | [] -> Plan.trivial flock
  | best :: _ -> best.plan
