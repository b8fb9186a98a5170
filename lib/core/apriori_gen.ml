module Ast = Qf_datalog.Ast
module Subquery = Qf_datalog.Subquery

type selection = [ `Fewest_subgoals | `Cheapest of Qf_datalog.Sizes.t ]

let ( let* ) = Result.bind
let error fmt = Format.kasprintf (fun s -> Error s) fmt

let step_name params = "ok_" ^ String.concat "_" params

let ok_atom name params =
  Ast.Pos { Ast.pred = name; args = List.map (fun p -> Ast.Param p) params }

(* Choose one safe subquery of [rule] with exactly [params].  When
   profiling, the candidate-generation funnel is metered: how many safe
   subqueries the a-priori generator enumerated versus how many survived
   selection (one per (rule, parameter-set) on success). *)
let choose_candidate selection (rule : Ast.rule) params =
  let candidates = Subquery.for_params rule params in
  if Qf_obs.Obs.enabled () then
    Qf_obs.Obs.count "apriori.candidate_subqueries" (List.length candidates);
  let chosen =
    match candidates with
    | [] -> None
    | _ -> (
      match selection with
      | `Fewest_subgoals -> Subquery.minimal_for_params rule params
      | `Cheapest env ->
        List.fold_left
          (fun best (c : Subquery.candidate) ->
            let cost = (Cost.estimate_rule env c.rule).Cost.work in
            match best with
            | None -> Some (c, cost)
            | Some (_, bc) -> if cost < bc then Some (c, cost) else best)
          None candidates
        |> Option.map fst)
  in
  (if Qf_obs.Obs.enabled () then
     match chosen with
     | Some _ -> Qf_obs.Obs.count "apriori.chosen_subqueries" 1
     | None -> ());
  chosen

let param_set_step ?(selection = `Fewest_subgoals) (flock : Flock.t) set =
  let set = List.sort_uniq String.compare set in
  let* () =
    if set = [] then Error "empty parameter set"
    else if List.for_all (fun p -> List.mem p (Flock.params flock)) set then
      Ok ()
    else error "parameter set {%s} not within the flock's parameters"
           (String.concat "," set)
  in
  let* subqueries =
    List.fold_left
      (fun acc rule ->
        let* rules = acc in
        match choose_candidate selection rule set with
        | Some c -> Ok (c.Subquery.rule :: rules)
        | None ->
          error "no safe subquery with parameters {%s} for rule %s"
            (String.concat "," set)
            (Qf_datalog.Pretty.rule_to_string rule))
      (Ok []) flock.query
  in
  Ok (Plan.step ~name:(step_name set) (List.rev subqueries))

(* A step joins the class of an earlier one whose query, with its
   parameters renamed rank to rank, is the step's query: the footnote-3
   renaming {!Plan.make} accepts for a renamed ok subgoal. *)
let classes steps =
  let renames (rep : Plan.step) (s : Plan.step) =
    List.compare_lengths rep.params s.params = 0
    && List.equal Ast.equal_rule s.query
         (List.map
            (Ast.rename_params (List.combine rep.params s.params))
            rep.query)
  in
  let rec group = function
    | [] -> []
    | (rep : Plan.step) :: rest ->
      let members, others = List.partition (renames rep) rest in
      (rep, List.map (fun (s : Plan.step) -> s.params) (rep :: members))
      :: group others
  in
  group steps

let plan_of_classes (flock : Flock.t) classes =
  let steps = List.map fst classes in
  let ok_atoms =
    List.concat_map
      (fun ((s : Plan.step), members) -> List.map (ok_atom s.name) members)
      classes
  in
  let final_query =
    List.map
      (fun (r : Ast.rule) -> { r with Ast.body = r.body @ ok_atoms })
      flock.query
  in
  Plan.make flock ~steps ~final:(Plan.step ~name:"result" final_query)

let param_set_plan ?selection flock ~param_sets =
  let* steps =
    List.fold_left
      (fun acc set ->
        let* steps = acc in
        let* step = param_set_step ?selection flock set in
        Ok (step :: steps))
      (Ok []) param_sets
  in
  plan_of_classes flock (classes (List.rev steps))

let singleton_plan ?selection (flock : Flock.t) =
  plan_of_classes flock
    (classes
       (List.filter_map
          (fun p -> Result.to_option (param_set_step ?selection flock [ p ]))
          (Flock.params flock)))

let chain_plan (flock : Flock.t) ~prefixes =
  let* rule =
    match flock.query with
    | [ r ] -> Ok r
    | _ -> Error "chain_plan: only single-rule flocks are supported"
  in
  let body = Array.of_list rule.body in
  let* () =
    if prefixes = [] then Error "chain_plan: empty prefix list" else Ok ()
  in
  let make_step i prev indices =
    let kept =
      List.map
        (fun j ->
          if j < 0 || j >= Array.length body then
            invalid_arg "chain_plan: literal index out of range"
          else body.(j))
        indices
    in
    let extra =
      match prev with
      | None -> []
      | Some (s : Plan.step) -> [ ok_atom s.name s.params ]
    in
    Plan.step
      ~name:(Printf.sprintf "ok%d" i)
      [ { rule with Ast.body = extra @ kept } ]
  in
  let steps =
    List.rev
      (snd
         (List.fold_left
            (fun (i, acc) indices ->
              let prev = match acc with [] -> None | s :: _ -> Some s in
              i + 1, make_step i prev indices :: acc)
            (0, []) prefixes))
  in
  let last = List.nth steps (List.length steps - 1) in
  let final_query =
    [ { rule with Ast.body = rule.body @ [ ok_atom last.name last.params ] } ]
  in
  Plan.make flock ~steps ~final:(Plan.step ~name:"result" final_query)

(* {1 Market baskets} *)

let param_name i = string_of_int i

(* All pairwise order constraints $i < $j for i < j <= k.  Pairwise (rather
   than only consecutive) constraints keep every renamed instance of a
   lower level's ordering subgoals an original subgoal, which the levelwise
   plan's symmetry argument needs. *)
let order_cmps upto =
  List.concat
    (List.init upto (fun i ->
         List.init
           (upto - i - 1)
           (fun d ->
             Ast.Cmp
               ( Ast.Param (param_name (i + 1)),
                 Ast.Lt,
                 Ast.Param (param_name (i + 2 + d)) ))))

(* All (k-1)-element subsets of [1..k], each sorted. *)
let subsets_dropping_one k =
  List.init k (fun drop ->
      List.filteri (fun i _ -> i <> drop) (List.init k (fun i -> i + 1)))

let basket_rule ~pred ?prev k =
  let atoms =
    List.init k (fun i ->
        Ast.Pos
          { Ast.pred; args = [ Ast.Var "B"; Ast.Param (param_name (i + 1)) ] })
  in
  let prune =
    match prev with
    | Some prev when k > 1 ->
      List.map
        (fun subset -> ok_atom prev (List.map param_name subset))
        (subsets_dropping_one k)
    | _ -> []
  in
  { Ast.head = { Ast.pred = "answer"; args = [ Ast.Var "B" ] };
    body = atoms @ order_cmps k @ prune }

let basket_flock ~pred ~k ~support =
  if k < 1 || k > 9 then invalid_arg "basket_flock: k must be in 1..9";
  Flock.make_exn [ basket_rule ~pred k ] (Filter.count_at_least support)

let levelwise_basket ~pred ~k ~support =
  let flock = basket_flock ~pred ~k ~support in
  (* Level j is pruned by ok_{j-1} on every (j-1)-subset of its
     parameters — sound by parameter symmetry (see {!Plan}). *)
  let params j = List.init j (fun i -> param_name (i + 1)) in
  let level j =
    [ basket_rule ~pred ~prev:(step_name (params (j - 1))) j ]
  in
  let steps =
    List.init (k - 1) (fun idx ->
        let j = idx + 1 in
        Plan.step ~name:(step_name (params j)) (level j))
  in
  let plan =
    Plan.make_exn flock ~steps ~final:(Plan.step ~name:"result" (level k))
  in
  flock, plan
