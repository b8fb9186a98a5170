module Ast = Qf_datalog.Ast
module Eval = Qf_datalog.Eval
module Pretty = Qf_datalog.Pretty
module Subquery = Qf_datalog.Subquery
module Relation = Qf_relational.Relation
module Value = Qf_relational.Value
module Tuple = Qf_relational.Tuple
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

(* Project the current environments to (parameters, head variables). *)
let project_prefix envs ~param_keys ~head_keys ~head_columns =
  Eval.Envs.project envs ~keys:(param_keys @ head_keys)
    ~columns:(param_keys @ head_columns)

(* Support count of each parameter assignment over the current prefix,
   keeping the assignments [keep] accepts given their count.  [keep] also
   receives the parameter names the key covers (a walk may filter before
   every parameter is bound). *)
let assignments_passing projected ~param_keys ~func ~keep =
  let groups = Aggregate.group_by projected ~keys:param_keys ~func in
  let params = List.map (fun k -> String.sub k 1 (String.length k - 1)) param_keys in
  let out =
    Relation.create
      (Qf_relational.Schema.of_list param_keys)
  in
  List.iter
    (fun (key, v) -> if keep ~params key v then Relation.add out key)
    groups;
  out

(* Walk one rule's body in the evaluator's order, deciding after each
   literal whether to interpose a filter.  [keep key aggregate_value]
   decides which parameter assignments survive a filter (this is where the
   union slack enters).  Returns the final environments and the trace. *)
let walk_rule config catalog rule ~sip ~head_keys ~head_columns ~func ~keep =
  let ordered = Eval.order_body catalog rule in
  let best_ratio : (string list, float) Hashtbl.t = Hashtbl.create 8 in
  let threshold_hint = ref infinity in
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
    if param_keys = [] || (not head_bound) || rows = 0 then
      ( envs,
        {
          after = Pretty.literal_to_string lit;
          param_set = param_keys;
          rows;
          assignments = 0;
          ratio = 0.;
          filtered = false;
          survivors = None;
        }
        :: trace )
    else begin
      let assignments =
        Relation.cardinal
          (Eval.Envs.project envs ~keys:param_keys ~columns:param_keys)
      in
      let ratio = float_of_int rows /. float_of_int assignments in
      let should_filter =
        match Hashtbl.find_opt best_ratio param_keys with
        | None -> ratio < config.ratio_factor *. !threshold_hint
        | Some best -> ratio < config.improvement_factor *. best
      in
      let previous_best =
        Option.value (Hashtbl.find_opt best_ratio param_keys) ~default:infinity
      in
      Hashtbl.replace best_ratio param_keys (Float.min ratio previous_best);
      Log.debug (fun m ->
          m "after %s: %d rows / %d assignments (ratio %.1f) -> %s"
            (Pretty.literal_to_string lit)
            rows assignments ratio
            (if should_filter then "FILTER" else "no filter"));
      if not should_filter then
        ( envs,
          {
            after = Pretty.literal_to_string lit;
            param_set = param_keys;
            rows;
            assignments;
            ratio;
            filtered = false;
            survivors = None;
          }
          :: trace )
      else begin
        let projected =
          project_prefix envs ~param_keys ~head_keys ~head_columns
        in
        let kept = assignments_passing projected ~param_keys ~func ~keep in
        let envs = Eval.Envs.semijoin envs ~keys:param_keys ~keep:kept in
        ( envs,
          {
            after = Pretty.literal_to_string lit;
            param_set = param_keys;
            rows;
            assignments;
            ratio;
            filtered = true;
            survivors = Some (Relation.cardinal kept);
          }
          :: trace )
      end
    end
  in
  let step acc lit =
    (* One span per run-time decision point: the sizes the Ex. 4.4
       heuristic saw and whether it interposed a filter. *)
    if not (Obs.enabled ()) then step acc lit
    else
      Obs.with_span "dynamic.decision" (fun () ->
          let (envs, trace) = step acc lit in
          (match trace with
          | (d : decision) :: _ ->
            Obs.set_attr "after" (Obs.Str d.after);
            Obs.set_attr "rows" (Obs.Int d.rows);
            Obs.set_attr "assignments" (Obs.Int d.assignments);
            Obs.set_attr "filtered" (Obs.Bool d.filtered);
            (match d.survivors with
            | Some s -> Obs.set_attr "survivors" (Obs.Int s)
            | None -> ())
          | [] -> ());
          (envs, trace))
  in
  fun ~threshold ->
    threshold_hint := threshold;
    let envs, trace = List.fold_left step (Eval.Envs.start (), []) ordered in
    envs, List.rev trace

let head_var_keys (rule : Ast.rule) =
  List.filter_map
    (function
      | (Ast.Var _ : Ast.term) as t -> Some (Ast.binding_key t)
      | Ast.Param _ | Ast.Const _ -> None)
    rule.head.args

(* {1 Single-rule evaluation (the paper's Ex. 4.4)} *)

(* The support of each value of parameter [p]: the COUNT of [p]'s
   minimal safe subquery, grouped by [p].  It upper-bounds the answer
   count of every full assignment giving [p] that value (the levelwise
   a-priori argument).  [None] when [p] has no minimal safe subquery. *)
let param_supports catalog rule p =
  Option.map
    (fun (c : Subquery.candidate) ->
      let tab = Eval.tabulate catalog c.rule in
      List.filter_map
        (fun ((key : Tuple.t), v) ->
          Option.map (fun x -> Tuple.get key 0, x) (Value.to_float v))
        (Aggregate.group_by tab ~keys:[ "$" ^ p ] ~func:Aggregate.Count))
    (Subquery.minimal_for_params rule [ p ])

(* A-priori reducers for the walk (single-rule COUNT filters only): values
   whose support misses the threshold can never contribute a surviving
   assignment, so the evaluator may refuse to even create bindings for
   them.  These are the same per-parameter tables the union executor's
   slack bounds are built from.  A reducer that would keep every value is
   omitted. *)
let apriori_reducers catalog rule ~params ~threshold =
  List.filter_map
    (fun p ->
      Option.bind (param_supports catalog rule p) (fun supports ->
          let passing =
            List.filter_map
              (fun (v, x) -> if x >= threshold then Some v else None)
              supports
          in
          if List.compare_lengths passing supports = 0 then None
          else Some ("$" ^ p, Sip.of_values (Array.of_list passing))))
    params

let run_single config catalog (flock : Flock.t) rule =
  let head_keys = head_var_keys rule in
  let head_columns = Eval.head_columns rule in
  let func = Filter.to_aggregate flock.filter ~head_columns in
  let threshold = flock.filter.threshold in
  let keep ~params:_ _key v = Aggregate.passes ~threshold v in
  let sip =
    match flock.filter.agg with
    | Filter.Count ->
      apriori_reducers catalog rule ~params:(Flock.params flock) ~threshold
    | _ -> []
  in
  let envs, trace =
    walk_rule config catalog rule ~sip ~head_keys ~head_columns ~func ~keep
      ~threshold
  in
  let param_keys = List.map (fun p -> "$" ^ p) (Flock.params flock) in
  let projected = project_prefix envs ~param_keys ~head_keys ~head_columns in
  let answers = assignments_passing projected ~param_keys ~func ~keep in
  Ok { answers; trace }

(* {1 Union evaluation (Sec. 3.4)}

   Sound per-branch pruning: drop assignment [a] from rule [i] only when
   prefix_count_i(a) plus the sum of the other rules' per-assignment bounds
   cannot reach the threshold — then the union total fails the filter
   whatever the other branches contribute. *)

(* Per-rule, per-parameter value -> answer-count bound, from the rule's
   minimal safe subquery for that parameter. *)
let rule_param_bounds catalog (rule : Ast.rule) params =
  List.filter_map
    (fun p ->
      Option.map
        (fun supports ->
          ( p,
            Hashtbl.of_seq
              (Seq.map (fun (v, x) -> v, int_of_float x) (List.to_seq supports))
          ))
        (param_supports catalog rule p))
    params

(* B_j(a): the tightest available bound for rule j at the (possibly
   partial) assignment a, whose key tuple covers exactly [bound_params] in
   order.  With no applicable per-parameter table the bound is unknown
   (max_int), which disables pruning — always sound. *)
let rule_bound bounds bound_params (key : Tuple.t) =
  List.fold_left
    (fun acc (p, tbl) ->
      match List.find_index (String.equal p) bound_params with
      | None -> acc
      | Some i ->
        let b = Option.value (Hashtbl.find_opt tbl (Tuple.get key i)) ~default:0 in
        min acc b)
    max_int bounds

let ( let* ) = Result.bind

let run_union config catalog (flock : Flock.t) rules =
  let params = Flock.params flock in
  let param_keys = List.map (fun p -> "$" ^ p) params in
  let* () =
    match flock.filter.agg with
    | Filter.Count -> Ok ()
    | Filter.Sum _ | Filter.Min _ | Filter.Max _ ->
      Error "Dynamic.run: unions support COUNT filters only"
  in
  let* () =
    if
      List.for_all
        (fun (r : Ast.rule) ->
          List.for_all
            (function Ast.Var _ -> true | Ast.Param _ | Ast.Const _ -> false)
            r.head.args)
        rules
    then Ok ()
    else Error "Dynamic.run: union heads must be plain variables"
  in
  let threshold = flock.filter.threshold in
  let bounds = List.map (fun r -> rule_param_bounds catalog r params) rules in
  let head_columns = Flock.head_columns flock in
  let union_tab =
    Relation.create
      (Qf_relational.Schema.of_list (param_keys @ head_columns))
  in
  let traces =
    List.mapi
      (fun i rule ->
        (* Slack from the other branches. *)
        let extra bound_params key =
          List.fold_left
            (fun acc (j, b) ->
              if j = i then acc
              else
                let bound = rule_bound b bound_params key in
                if bound = max_int || acc = max_int then max_int
                else acc + bound)
            0
            (List.mapi (fun j b -> j, b) bounds)
        in
        let keep ~params:bound_params key v =
          match Value.to_float v with
          | None -> false
          | Some x ->
            let slack = extra bound_params key in
            slack = max_int || x +. float_of_int slack >= threshold
        in
        let head_keys = head_var_keys rule in
        (* No reducers here: a value below one branch's own threshold may
           still pass through the union (see [test_union_crosses_branches]),
           so per-branch a-priori pruning would be unsound. *)
        let envs, trace =
          walk_rule config catalog rule ~sip:[] ~head_keys
            ~head_columns:(Eval.head_columns rule)
            ~func:Aggregate.Count ~keep ~threshold
        in
        (* Accumulate this branch's full tabulation, renamed positionally to
           the union schema. *)
        let projected =
          Eval.Envs.project envs
            ~keys:(param_keys @ head_keys)
            ~columns:(param_keys @ Eval.head_columns rule)
        in
        Relation.add_all union_tab projected;
        List.map
          (fun d -> { d with after = Printf.sprintf "rule %d: %s" i d.after })
          trace)
      rules
  in
  let answers =
    Aggregate.group_filter union_tab ~keys:param_keys ~func:Aggregate.Count
      ~threshold
  in
  Ok { answers; trace = List.concat traces }

let run ?(config = default_config) catalog (flock : Flock.t) =
  Obs.with_span "dynamic.run" @@ fun () ->
  if not (Filter.is_monotone flock.filter) then
    Error "Dynamic.run: the filter is not monotone"
  else
    try
      let result =
        match flock.query with
        | [] -> Error "Dynamic.run: empty query"
        | [ rule ] -> run_single config catalog flock rule
        | rules -> run_union config catalog flock rules
      in
      (match result with
      | Ok r ->
        Obs.set_attr "rows_out" (Obs.Int (Relation.cardinal r.answers))
      | Error _ -> ());
      result
    with
    | Eval.Error msg -> Error msg
    | Failure msg -> Error msg
