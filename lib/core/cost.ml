module Ast = Qf_datalog.Ast
module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
module Schema = Qf_relational.Schema
module Statistics = Qf_relational.Statistics

type vstats = {
  rows : float;
  distinct : float array;
  frequencies : int array array;
}

type env = (string * vstats) list

let of_catalog catalog =
  List.map
    (fun name ->
      let stats = Catalog.stats catalog name in
      let columns = Schema.columns (Relation.schema (Catalog.find catalog name)) in
      ( name,
        {
          rows = float_of_int (Statistics.cardinality stats);
          distinct =
            Array.of_list
              (List.map
                 (fun c -> float_of_int (Statistics.distinct stats c))
                 columns);
          frequencies =
            Array.of_list
              (List.map (fun c -> Statistics.frequencies stats c) columns);
        } ))
    (Catalog.names catalog)

let extend env name stats = (name, stats) :: env
let lookup env name = List.assoc_opt name env

let lookup_exn env name =
  match lookup env name with
  | Some s -> s
  | None -> failwith (Printf.sprintf "Cost: no statistics for predicate %s" name)

type estimate = {
  work : float;
  rows : float;
}

(* Expected index matches per environment for [atom] given bound keys. *)
let est_matches env bound (a : Ast.atom) =
  let (s : vstats) = lookup_exn env a.pred in
  let est = ref s.rows in
  List.iteri
    (fun i arg ->
      let is_bound =
        match arg with
        | Ast.Const _ -> true
        | Ast.Var _ | Ast.Param _ -> List.mem (Ast.binding_key arg) bound
      in
      if is_bound && i < Array.length s.distinct then
        est := !est /. Float.max 1. s.distinct.(i))
    a.args;
  Float.max 0. !est

(* The evaluator's join order, priced: a positive subgoal multiplies the
   rows by its expected matches and adds the new rows to the work; each
   run of consecutive negations and comparisons is charged one pass over
   the current rows and the product of their default selectivities. *)
let neg_selectivity = 0.8
let cmp_selectivity = 0.5

let estimate_rule env (r : Ast.rule) =
  let rec walk rows work = function
    | [] -> { work; rows }
    | (bound, Ast.Pos a) :: rest ->
      let rows = rows *. est_matches env bound a in
      walk rows (work +. rows) rest
    | ordered ->
      let rec run selectivity = function
        | (_, Ast.Neg _) :: rest -> run (selectivity *. neg_selectivity) rest
        | (_, Ast.Cmp _) :: rest -> run (selectivity *. cmp_selectivity) rest
        | rest -> selectivity, rest
      in
      let selectivity, rest = run 1. ordered in
      walk (rows *. selectivity) (work +. rows) rest
  in
  walk 1. 0. (Qf_datalog.Eval.greedy_order ~matches:(est_matches env) r.body)

let estimate_query env (q : Ast.query) =
  List.fold_left
    (fun acc r ->
      let e = estimate_rule env r in
      { work = acc.work +. e.work; rows = acc.rows +. e.rows })
    { work = 0.; rows = 0. }
    q

(* Domain of a parameter within a query: the smallest distinct count among
   its positive occurrences (any rule). *)
let param_domain env (q : Ast.query) param =
  let occ = ref infinity in
  List.iter
    (fun (r : Ast.rule) ->
      List.iter
        (fun (a : Ast.atom) ->
          let s = lookup_exn env a.pred in
          List.iteri
            (fun i arg ->
              match arg with
              | Ast.Param p
                when String.equal p param && i < Array.length s.distinct ->
                occ := Float.min !occ s.distinct.(i)
              | _ -> ())
            a.args)
        (Ast.positive_atoms r))
    q;
  if !occ = infinity then 1. else Float.max 1. !occ

let estimate_groups env q params =
  List.fold_left (fun acc p -> acc *. param_domain env q p) 1. params

(* Exact survivors for the single-subgoal, single-parameter COUNT shape:
   answer(..) :- p(..., $x, ...).  The number of $x values passing the
   threshold is the number of column values with at least [threshold]
   occurrences — read directly off the column's frequency distribution.
   Only a COUNT filter counts occurrences: SUM/MIN/MAX survivors are not
   a function of the frequencies. *)
let exact_survivors env ~(filter : Filter.t) (s : Plan.step) =
  match filter.agg, s.query, s.params with
  | Count, [ { Ast.body = [ Ast.Pos a ]; _ } ], [ p ] ->
    let position =
      List.find_index
        (fun arg ->
          match arg with
          | Ast.Param p' -> String.equal p p'
          | Ast.Var _ | Ast.Const _ -> false)
        a.args
    in
    Option.bind position (fun i ->
        match lookup env a.pred with
        | Some (stats : vstats) when i < Array.length stats.frequencies ->
          let freqs = stats.frequencies.(i) in
          if Array.length freqs = 0 then None
          else
            Some
              (float_of_int
                 (Statistics.values_at_least freqs ~threshold:filter.threshold))
        | _ -> None)
  | _ -> None

let estimate_step env ~(filter : Filter.t) (s : Plan.step) =
  let threshold = filter.threshold in
  let e = estimate_query env s.query in
  let groups = estimate_groups env s.query s.params in
  let avg = if groups <= 0. then 0. else e.rows /. groups in
  let survival =
    if threshold <= 0. then 1.
    else if avg >= threshold then 1.
    else avg /. threshold
  in
  let survivors =
    match exact_survivors env ~filter s with
    | Some exact -> Float.max 1. exact
    | None -> Float.max 1. (groups *. survival)
  in
  let per_column = Float.max 1. survivors in
  let out_stats =
    {
      rows = survivors;
      distinct = Array.make (List.length s.params) per_column;
      frequencies = [||];
    }
  in
  (* Materializing the tabulated relation and grouping it cost roughly
     three passes over its rows (hash-set insert, key projection, group
     index) on top of the join work itself.  This still prices that
     materialized path: an in-memory step now counts its groups inside
     each rule's last subgoal's probe loop ([Eval.filter_query]), which costs
     less.  The constant is kept until a measurement of plan regret can
     re-fit it, so plan choices and counts stay as they were. *)
  e.work +. (3. *. e.rows), out_stats

(* Model the executor's SIP reducers: for every single-parameter
   auxiliary step, shrink the statistics of the base atoms the final query
   applies that parameter to, as if only the rows whose value the reducer
   keeps were probed.  Without this, the model sees few surviving
   values but misses that those values carry most of the row mass on
   skewed data — the exact mistake that made filtering look free. *)
let reduce_env_for_final env ~threshold (plan : Plan.t) =
  let single_param_steps =
    List.filter_map
      (fun (s : Plan.step) ->
        match s.params with [ p ] -> Some (p, s) | _ -> None)
      plan.steps
  in
  List.fold_left
    (fun env (r : Ast.rule) ->
      List.fold_left
        (fun env (a : Ast.atom) ->
          List.fold_left
            (fun env (i, arg) ->
              match arg with
              | Ast.Param p -> (
                match List.assoc_opt p single_param_steps with
                | None -> env
                | Some _ -> (
                  match lookup env a.pred with
                  | Some (stats : vstats)
                    when i < Array.length stats.frequencies
                         && Array.length stats.frequencies.(i) > 0 ->
                    let freqs = stats.frequencies.(i) in
                    let kept = Statistics.values_at_least freqs ~threshold in
                    (* The row mass the kept values carry. *)
                    let kept_mass =
                      float_of_int (Array.fold_left ( + ) 0 (Array.sub freqs 0 kept))
                    in
                    let kept_values = float_of_int kept in
                    let distinct = Array.copy stats.distinct in
                    if i < Array.length distinct then
                      distinct.(i) <- Float.max 1. kept_values;
                    extend env a.pred
                      {
                        stats with
                        rows = Float.min stats.rows (Float.max 1. kept_mass);
                        distinct;
                      }
                  | _ -> env))
              | Ast.Var _ | Ast.Const _ -> env)
            env
            (List.mapi (fun i arg -> i, arg) a.args))
        env (Ast.positive_atoms r))
    env plan.final.query

(* Apply a certified (groups, rows) upper bound to a step's estimated
   output: survivors cannot exceed the certified survivor bound, and the
   per-column distinct counts cannot exceed the clamped row count.  The
   clamp only ever tightens — [min(estimate, bound)] — so an absent or
   infinite bound leaves the estimate untouched. *)
let clamp_out clamps name (out : vstats) =
  match List.assoc_opt name clamps with
  | None -> out
  | Some (_groups_bound, rows_bound) ->
    if out.rows <= rows_bound then out
    else
      let rows = rows_bound in
      {
        out with
        rows;
        distinct = Array.map (fun d -> Float.min d (Float.max 1. rows)) out.distinct;
      }

type step_estimate = {
  step : string;
  est_work : float;
  est_groups : float;
  est_rows : float;
}

(* Per-step estimates: each auxiliary step's estimated output statistics
   feed the later steps, and the final step sees the env its reducers
   shrink. *)

let plan_step_estimates ?(clamps = []) env (plan : Plan.t) =
  let filter = plan.flock.filter in
  let one env (s : Plan.step) =
    let w, out = estimate_step env ~filter s in
    let out = clamp_out clamps s.Plan.name out in
    let groups_bound =
      match List.assoc_opt s.Plan.name clamps with
      | Some (g, _) -> g
      | None -> infinity
    in
    ( out,
      {
        step = s.name;
        est_work = w;
        est_groups = Float.min groups_bound (estimate_groups env s.query s.params);
        est_rows = out.rows;
      } )
  in
  let env, acc =
    List.fold_left
      (fun (env, acc) (s : Plan.step) ->
        let out, e = one env s in
        extend env s.Plan.name out, e :: acc)
      (env, []) plan.steps
  in
  let final_env = reduce_env_for_final env ~threshold:filter.threshold plan in
  let _, e = one final_env plan.final in
  List.rev (e :: acc)

(* The optimizer's cost: the same walk, unclamped, summed in step order. *)
let estimate_plan env plan =
  List.fold_left
    (fun acc e -> acc +. e.est_work)
    0. (plan_step_estimates env plan)
