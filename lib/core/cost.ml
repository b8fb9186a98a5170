module Ast = Qf_datalog.Ast
module Sizes = Qf_datalog.Sizes

type estimate = {
  work : float;
  rows : float;
}

(* {1 Reducers}

   A step's ok subgoals give their parameters exact reducers, read by the
   executor's rule ({!Plan_exec.reducer_columns}) and kept only when
   every rule of the union has them, as the executor applies one list to
   all the rules.  A reduced parameter keeps, as the model sees it, the
   fewest values any of its reducers keeps: the estimated distinct count
   of the ok relation's column. *)

let reducers ~step_names (q : Ast.query) =
  match List.map (Plan_exec.reducer_columns ~step_names) q with
  | [] -> []
  | first :: rest ->
    List.sort_uniq compare
      (List.filter (fun c -> List.for_all (List.mem c) rest) first)

let kept env reducers p =
  List.fold_left
    (fun k (p', (pred, col)) ->
      match Sizes.find env pred with
      | Some (s : Sizes.profile) when String.equal p p' && col < Array.length s.ndv
        ->
        Float.min k (Float.max 1. s.ndv.(col))
      | _ -> k)
    infinity reducers

(* A unary [ok($p)] ordered after [$p] is bound is enforced by its own
   reducer, and the executor does not probe it ([Eval.enforced]). *)
let enforced reducers bound = function
  | Ast.Pos { Ast.pred; args = [ Ast.Param p ] } ->
    List.mem ("$" ^ p) bound && List.mem (p, (pred, 0)) reducers
  | _ -> false

(* The share of a column's rows whose value a reducer keeps, taking the
   kept values to be the column's [kept] most frequent ones (they are
   what a monotone filter keeps on skewed data): their row mass off the
   frequency vector, or a uniform share for a derived relation, whose
   distribution is unknown.  Where the parameter is already bound, the
   atom matches the kept values' mean frequency instead of the column's,
   so the share is scaled by [distinct / kept]. *)
let kept_share (s : Sizes.profile) i kept ~bound =
  let distinct = Float.max 1. s.ndv.(i) in
  let kept = Float.min kept distinct in
  if kept >= distinct then 1.
  else begin
    let freqs = s.frequencies.(i) in
    let mass =
      if Array.length freqs = 0 then s.rows *. kept /. distinct
      else
        let n = min (Array.length freqs) (max 1 (int_of_float kept)) in
        float_of_int (Array.fold_left ( + ) 0 (Array.sub freqs 0 n))
    in
    let share = mass /. Float.max 1. s.rows in
    if bound then share *. distinct /. kept else share
  end

(* Expected matches of [atom] with the reducers applied: each parameter
   column a reducer covers thins the matches by its kept share. *)
let reduced_matches env reducers bound (a : Ast.atom) =
  let est = Sizes.expected_matches env bound a in
  match Sizes.find env a.pred with
  | None -> est
  | Some s ->
    snd
      (List.fold_left
         (fun (i, est) arg ->
           match arg with
           | Ast.Param p when i < Array.length s.ndv ->
             let k = kept env reducers p in
             ( i + 1,
               if k = infinity then est
               else est *. kept_share s i k ~bound:(List.mem ("$" ^ p) bound) )
           | Ast.Param _ | Ast.Var _ | Ast.Const _ -> i + 1, est)
         (0, est) a.args)

(* The evaluator's join order, priced.  The order is [Eval]'s greedy
   order over the unreduced statistics, as the executor computes it; the
   subgoals the reducers enforce are dropped from it, as the executor
   drops them.  Along it, a positive subgoal multiplies the rows by its
   expected matches, thinned by the reducers, and adds the new rows to
   the work; each run of consecutive negations and comparisons is
   charged one pass over the current rows and the product of their
   default selectivities. *)
let neg_selectivity = 0.8
let cmp_selectivity = 0.5

let price_rule env ~reducers (r : Ast.rule) =
  let rec walk rows work = function
    | [] -> { work; rows }
    | (bound, Ast.Pos a) :: rest ->
      let out = rows *. reduced_matches env reducers bound a in
      walk out (work +. rows +. out) rest
    | ordered ->
      let rec run selectivity = function
        | (_, Ast.Neg _) :: rest -> run (selectivity *. neg_selectivity) rest
        | (_, Ast.Cmp _) :: rest -> run (selectivity *. cmp_selectivity) rest
        | rest -> selectivity, rest
      in
      let selectivity, rest = run 1. ordered in
      walk (rows *. selectivity) (work +. rows) rest
  in
  walk 1. 0.
    (List.filter
       (fun (bound, lit) -> not (enforced reducers bound lit))
       (Qf_datalog.Eval.greedy_order ~matches:(Sizes.expected_matches env)
          r.body))

let estimate_rule ?(step_names = []) env r =
  price_rule env ~reducers:(reducers ~step_names [ r ]) r

let estimate_query env ~step_names (q : Ast.query) =
  let reducers = reducers ~step_names q in
  List.fold_left
    (fun acc r ->
      let e = price_rule env ~reducers r in
      { work = acc.work +. e.work; rows = acc.rows +. e.rows })
    { work = 0.; rows = 0. }
    q

(* Domain of a parameter within a query: the smallest distinct count among
   its positive occurrences (any rule), at least 1. *)
let param_domain env (q : Ast.query) param =
  let ndv = Sizes.param_ndv env (List.concat_map Ast.positive_atoms q) param in
  if ndv = infinity then 1. else Float.max 1. ndv

let estimate_groups env q params =
  List.fold_left (fun acc p -> acc *. param_domain env q p) 1. params

(* Exact survivors for the single-subgoal, single-parameter COUNT shape:
   answer(..) :- p(..., $x, ...).  The number of $x values passing the
   threshold is the number of column values with at least [threshold]
   occurrences — read directly off the column's frequency distribution.
   Only a COUNT filter counts occurrences: SUM/MIN/MAX survivors are not
   a function of the frequencies. *)
let counted_survivors env ~(filter : Filter.t) (s : Plan.step) =
  match filter.agg, s.query, s.params with
  | Count, [ { Ast.body = [ Ast.Pos a ]; _ } ], [ p ] ->
    Sizes.values_at_least env a p ~threshold:filter.threshold
  | _ -> None

let estimate_step ?(step_names = []) env ~(filter : Filter.t) (s : Plan.step) =
  let threshold = filter.threshold in
  let e = estimate_query env ~step_names s.query in
  let groups = estimate_groups env s.query s.params in
  let avg = if groups <= 0. then 0. else e.rows /. groups in
  let survival =
    if threshold <= 0. then 1.
    else if avg >= threshold then 1.
    else avg /. threshold
  in
  let survivors =
    match counted_survivors env ~filter s with
    | Some exact -> Float.max 1. exact
    | None -> Float.max 1. (groups *. survival)
  in
  (* A column holds at most the survivors, and at most its parameter's
     domain in the step's query. *)
  let out_stats =
    Sizes.output ~rows:survivors
      (List.map
         (fun p -> Float.min survivors (param_domain env s.query p))
         s.params)
  in
  (* Each tabulated row is also counted into the step's group table,
     once, inside the last subgoal's probe loop ([Eval.filter_query]):
     one unit, as a match is.  Timings of every plan on perfbench's
     market and medical queries and on E9 chose better at one unit than
     at three, where a step over one large relation looked dearer than
     the join it prunes. *)
  e.work +. e.rows, out_stats

type step_estimate = {
  step : string;
  est_work : float;
  est_groups : float;
  est_rows : float;
}

(* Per-step estimates: each auxiliary step's estimated output statistics
   feed the later steps, whose ok subgoals over them are priced as the
   executor's reducers. *)

let plan_step_estimates env (plan : Plan.t) =
  let filter = plan.flock.filter in
  let one env step_names (s : Plan.step) =
    let w, out = estimate_step env ~step_names ~filter s in
    ( out,
      {
        step = s.name;
        est_work = w;
        est_groups = estimate_groups env s.query s.params;
        est_rows = out.rows;
      } )
  in
  let env, step_names, acc =
    List.fold_left
      (fun (env, step_names, acc) (s : Plan.step) ->
        let out, e = one env step_names s in
        Sizes.add env s.Plan.name out, s.Plan.name :: step_names, e :: acc)
      (env, [], []) plan.steps
  in
  let _, e = one env step_names plan.final in
  List.rev (e :: acc)

(* The optimizer's cost: the same walk, summed in step order. *)
let estimate_plan env plan =
  List.fold_left
    (fun acc e -> acc +. e.est_work)
    0. (plan_step_estimates env plan)
