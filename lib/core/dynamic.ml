module Ast = Qf_datalog.Ast
module Eval = Qf_datalog.Eval
module Pretty = Qf_datalog.Pretty
module Subquery = Qf_datalog.Subquery
module Relation = Qf_relational.Relation
module Aggregate = Qf_relational.Aggregate
module Sip = Qf_relational.Sip

module Obs = Qf_obs.Obs

let log_src = Logs.Src.create "qf.dynamic" ~doc:"Dynamic filter selection"

module Log = (val Logs.src_log log_src)

type config = {
  ratio_factor : float;
  improvement_factor : float;
}

let default_config = { ratio_factor = 1.0; improvement_factor = 0.5 }

type decision = {
  after : string;
  param_set : string list;
  rows : int;
  assignments : int;
  ratio : float;
  filtered : bool;
  survivors : int option;
}

type result = {
  answers : Qf_relational.Relation.t;
  trace : decision list;
}

let param_keys_of envs =
  List.filter (fun k -> String.length k > 0 && k.[0] = '$')
    (Eval.Envs.bound_keys envs)

let head_var_keys (rule : Ast.rule) =
  List.filter_map
    (function
      | (Ast.Var _ : Ast.term) as t -> Some (Ast.binding_key t)
      | Ast.Param _ | Ast.Const _ -> None)
    rule.head.args

(* Walk one rule's body in the evaluator's order, deciding after each
   literal whether to interpose a filter.  The environments so far go
   through the FILTER a plan step runs ({!Eval.groups}): its group count
   is the decision's assignment count, and an interposed filter keeps
   its survivors — the groups passing the threshold, lowered by [slack
   keys codes] for an assignment (codes) of the bound parameters [keys],
   where the union slack enters.  Later literals may still drop rows, so
   the filter is a bounding one ({!Eval.groups}).  Returns the final
   environments and the trace. *)
let walk_rule config catalog rule ~sip ~func ~slack ~threshold =
  let head_keys = head_var_keys rule in
  let best_ratio : (string list, float) Hashtbl.t = Hashtbl.create 8 in
  let step (envs, trace) lit =
    Qf_governor.Governor.check ();
    (* Literal at a time, with no filters fused into an extension: the
       decision below and the trace look at the rows after every
       literal. *)
    let envs =
      match lit with
      | Ast.Pos a -> Eval.Envs.extend_pos ~sip catalog envs a
      | Ast.Neg a -> Eval.Envs.filter_neg catalog envs a
      | Ast.Cmp (l, c, r) -> Eval.Envs.filter_cmp envs l c r
    in
    let param_keys = param_keys_of envs in
    let rows = Eval.Envs.count envs in
    let head_bound =
      List.for_all (fun k -> List.mem k (Eval.Envs.bound_keys envs)) head_keys
    in
    let decision =
      {
        after = Pretty.literal_to_string lit;
        param_set = param_keys;
        rows;
        assignments = 0;
        ratio = 0.;
        filtered = false;
        survivors = None;
      }
    in
    if param_keys = [] || (not head_bound) || rows = 0 then
      envs, decision :: trace
    else begin
      let groups =
        Eval.groups ~bounding:true [ rule ] ~keys:param_keys ~func
      in
      Eval.add_envs groups rule envs;
      let kept, _, assignments =
        Eval.filter_groups
          ?slack:(Option.map (fun slack -> slack param_keys) slack)
          groups ~threshold
      in
      let ratio = float_of_int rows /. float_of_int assignments in
      let best = Hashtbl.find_opt best_ratio param_keys in
      let should_filter =
        match best with
        | None -> ratio < config.ratio_factor *. threshold
        | Some best -> ratio < config.improvement_factor *. best
      in
      Hashtbl.replace best_ratio param_keys
        (Float.min ratio (Option.value best ~default:infinity));
      Log.debug (fun m ->
          m "after %s: %d rows / %d assignments (ratio %.1f) -> %s"
            decision.after rows assignments ratio
            (if should_filter then "FILTER" else "no filter"));
      let decision = { decision with assignments; ratio } in
      if not should_filter then envs, decision :: trace
      else
        ( Eval.Envs.semijoin envs ~keys:param_keys ~keep:kept,
          {
            decision with
            filtered = true;
            survivors = Some (Relation.cardinal kept);
          }
          :: trace )
    end
  in
  let step acc lit =
    (* One span per run-time decision point: the sizes the Ex. 4.4
       heuristic saw and whether it interposed a filter. *)
    if not (Obs.enabled ()) then step acc lit
    else
      Obs.with_span "dynamic.decision" (fun () ->
          let ((_, trace) as walked) = step acc lit in
          let d : decision = List.hd trace in
          Obs.set_attr "after" (Obs.Str d.after);
          Obs.set_attr "rows" (Obs.Int d.rows);
          Obs.set_attr "assignments" (Obs.Int d.assignments);
          Obs.set_attr "filtered" (Obs.Bool d.filtered);
          Option.iter (fun s -> Obs.set_attr "survivors" (Obs.Int s)) d.survivors;
          walked)
  in
  let envs, trace =
    List.fold_left step (Eval.Envs.start (), []) (Eval.order_body catalog rule)
  in
  envs, List.rev trace

(* [f key sub] for each parameter [p] with a minimal safe subquery [sub],
   [key] being ["$p"]: the FILTER over [sub] upper-bounds [p]'s values
   (the levelwise a-priori argument). *)
let per_param rule params f =
  List.filter_map
    (fun p ->
      Option.bind (Subquery.minimal_for_params rule [ p ])
        (fun (c : Subquery.candidate) -> f ("$" ^ p) c.rule))
    params

(* A-priori reducers for the walk (single-rule COUNT filters only): the
   FILTER over each parameter's minimal safe subquery, as a plan step
   computes it, and a reducer over its survivors, as plan execution
   builds one.  Values whose support misses the threshold can never
   contribute a surviving assignment, so the evaluator may refuse to
   even create bindings for them.  A reducer that would keep every value
   is omitted. *)
let apriori_reducers catalog rule ~params ~threshold =
  per_param rule params (fun key sub ->
      let survivors, _, groups, _ =
        Eval.filter_query catalog [ sub ] ~keys:[ key ] ~func:Aggregate.Count
          ~threshold
      in
      if Relation.cardinal survivors = groups then None
      else Some (key, Sip.of_column survivors key))

(* {1 Union bounds (Sec. 3.4)}

   Sound per-branch pruning: drop assignment [a] from rule [i] only when
   prefix_count_i(a) plus the sum of the other rules' per-assignment bounds
   cannot reach the threshold — then the union total fails the filter
   whatever the other branches contribute.  Rule [j]'s bound for a value
   of parameter [p] is the value's support (by code) in [j]'s minimal
   safe subquery for [p]. *)
let rule_param_bounds catalog rule params =
  per_param rule params (fun key sub ->
      Some (key, Eval.supports catalog sub ~key))

(* B_j(a): the tightest available bound for rule j at the (possibly
   partial) assignment a, the codes of the binding keys [keys].  With no
   applicable per-parameter table the bound is unknown (infinite), which
   disables pruning — always sound. *)
let rule_bound bounds keys codes =
  List.fold_left
    (fun acc (key, tbl) ->
      match List.find_index (String.equal key) keys with
      | None -> acc
      | Some i ->
        Float.min acc
          (Option.value (Hashtbl.find_opt tbl codes.(i)) ~default:0.))
    infinity bounds

(* Walk every rule, then feed their final environments into one FILTER
   group table: the flock's answer. *)
let evaluate config catalog (flock : Flock.t) =
  let threshold = flock.filter.threshold in
  let func =
    Filter.to_aggregate flock.filter ~head_columns:(Flock.head_columns flock)
  in
  let walk ~sip ~slack rule =
    walk_rule config catalog rule ~sip ~func ~slack ~threshold
  in
  let answer walks =
    let groups =
      Eval.groups flock.query ~keys:(Flock.result_columns flock) ~func
    in
    List.iter2
      (fun rule (envs, _) -> Eval.add_envs groups rule envs)
      flock.query walks;
    let answers, _, _ = Eval.filter_groups groups ~threshold in
    Ok { answers; trace = List.concat_map snd walks }
  in
  match flock.query with
  | [] -> Error "Dynamic.run: empty query"
  | [ rule ] ->
    let sip =
      if func = Aggregate.Count then
        apriori_reducers catalog rule ~params:(Flock.params flock) ~threshold
      else []
    in
    answer [ walk ~sip ~slack:None rule ]
  | _ when func <> Aggregate.Count ->
    Error "Dynamic.run: unions support COUNT filters only"
  | rules ->
    let bounds =
      List.map (fun r -> rule_param_bounds catalog r (Flock.params flock)) rules
    in
    answer
      (List.mapi
         (fun i rule ->
           (* Slack from the other branches: the sum of their bounds. *)
           let slack keys codes =
             List.fold_left ( +. ) 0.
               (List.filteri (fun j _ -> j <> i)
                  (List.map (fun b -> rule_bound b keys codes) bounds))
           in
           (* No reducers here: a value below one branch's own threshold
              may still pass through the union (see
              [test_union_crosses_branches]), so per-branch a-priori
              pruning would be unsound. *)
           let envs, trace = walk ~sip:[] ~slack:(Some slack) rule in
           ( envs,
             List.map
               (fun d ->
                 { d with after = Printf.sprintf "rule %d: %s" i d.after })
               trace ))
         rules)

let run ?(config = default_config) catalog (flock : Flock.t) =
  Obs.with_span "dynamic.run" @@ fun () ->
  if not (Filter.is_monotone flock.filter) then
    Error "Dynamic.run: the filter is not monotone"
  else
    try
      let result = evaluate config catalog flock in
      (match result with
      | Ok r ->
        Obs.set_attr "rows_out" (Obs.Int (Relation.cardinal r.answers))
      | Error _ -> ());
      result
    with
    | Eval.Error msg -> Error msg
    | Failure msg -> Error msg
