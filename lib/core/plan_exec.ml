module Ast = Qf_datalog.Ast
module Eval = Qf_datalog.Eval
module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
module Schema = Qf_relational.Schema
module Sip = Qf_relational.Sip

module Obs = Qf_obs.Obs

let log_src = Logs.Src.create "qf.plan" ~doc:"FILTER-step plan execution"

module Log = (val Logs.src_log log_src)

type step_report = {
  step_name : string;
  tabulated_rows : int;
  groups : int;
  survivors : int;
  seconds : float;
  reused_from : string option;
  memo_hit : bool;
  sip_pruned : int;
}

type report = {
  result : Qf_relational.Relation.t;
  steps : step_report list;
}

type options = {
  semijoin_reduction : bool;
  reuse : bool;
}

let default_options = { semijoin_reduction = true; reuse = true }

(* Sideways information passing — the rewrite the paper's Sec. 1.3 measured:
   "first find those items that appeared in at least 20 baskets ... and then
   join the set of these items with the baskets relation before performing
   the query".  The join happens where a parameter is bound: every ok
   subgoal [ok($p, ...)] of a rule, whatever its arity, gives each of its
   parameters an exact {!Sip} reducer over [ok]'s column for it, and the
   evaluator ([Eval.filter_query ~sip]) drops a candidate value the moment
   it would bind the parameter outside that set — before the binding
   enters the environment relation or the step's group table.  That is
   sound because the [ok] subgoal is in the body: it would drop the value
   later.  A unary [ok($p)] ordered after [$p] is bound is then already
   enforced, and the evaluator does not probe it.

   Reducers are memoized across rules and steps of one plan execution,
   keyed by the ok relation's {!Relation.id} and the column, so step
   names that alias one relation share them. *)

(* The reducer columns of a rule: every parameter of an ok subgoal over
   [step_names] whose arguments are all parameters, with the subgoal's
   predicate and the column its argument position addresses.  A step's
   output has one column per step parameter, in sorted order, and an ok
   subgoal's i-th argument renames the step's i-th parameter ({!Plan}'s
   footnote-3 renaming), so it reads column i.  That holds too when the
   reuse shortcut registered an α-equivalent step's relation under the
   step's name: α-equivalence maps parameters rank to rank. *)
let reducer_columns ~step_names (r : Ast.rule) =
  let param = function Ast.Param p -> Some p | _ -> None in
  List.concat_map
    (function
      | Ast.Pos { Ast.pred; args } when List.mem pred step_names ->
        let ps = List.filter_map param args in
        if ps = [] || List.compare_lengths ps args <> 0 then []
        else List.mapi (fun col p -> p, (pred, col)) ps
      | _ -> [])
    r.body

let rule_reducers work ~step_names ~sips (r : Ast.rule) =
  let reducer ok col =
    let key = Relation.id ok, col in
    match Hashtbl.find_opt sips key with
    | Some s -> s
    | None ->
      let s =
        Sip.of_column ok (List.nth (Schema.columns (Relation.schema ok)) col)
      in
      Hashtbl.replace sips key s;
      s
  in
  List.map
    (fun (p, (pred, col)) -> "$" ^ p, reducer (Catalog.find work pred) col)
    (reducer_columns ~step_names r)

(* The reducers of a step's query, each once: those every rule has, since
   one list applies to all the rules of a union. *)
let query_reducers work ~step_names ~sips query =
  let same (k, s) (k', s') = String.equal k k' && s == s' in
  match List.map (rule_reducers work ~step_names ~sips) query with
  | [] -> []
  | first :: rest ->
    List.fold_left
      (fun acc r ->
        if
          List.exists (same r) acc
          || not (List.for_all (List.exists (same r)) rest)
        then acc
        else r :: acc)
      [] first
    |> List.rev

let run_step work ~options ~step_names ~sips ~bounding (flock : Flock.t)
    (s : Plan.step) =
  let t0 = Obs.now () in
  let compute () =
    let sip =
      if options.semijoin_reduction then
        query_reducers work ~step_names ~sips s.query
      else []
    in
    let func =
      Filter.to_aggregate flock.filter
        ~head_columns:(Eval.head_columns (List.hd s.query))
    in
    let survivors, tab_rows, groups, pruned =
      Eval.filter_query ~sip ~bounding work s.query
        ~keys:(List.map (fun p -> "$" ^ p) s.params)
        ~func ~threshold:flock.filter.threshold
    in
    Catalog.add work s.name survivors;
    survivors, tab_rows, groups, Relation.cardinal survivors, pruned
  in
  let survivors, tab_rows, groups, survived, pruned =
    if not (Obs.enabled ()) then compute ()
    else
      (* The FILTER-step span: rows in, candidate groups, surviving rows,
         the a-priori pruning ratio (surviving fraction) and candidates
         rejected by SIP reducers. *)
      Obs.with_span "filter.step" ~attrs:[ "step", Obs.Str s.name ] (fun () ->
          let (_, tab_rows, groups, survived, pruned) as r = compute () in
          Obs.set_attr "rows_in" (Obs.Int tab_rows);
          Obs.set_attr "groups" (Obs.Int groups);
          Obs.set_attr "rows_out" (Obs.Int survived);
          Obs.set_attr "pruning_ratio"
            (Obs.Float
               (if groups = 0 then 1.
                else float_of_int survived /. float_of_int groups));
          if options.semijoin_reduction then
            Obs.set_attr "sip_pruned" (Obs.Int pruned);
          r)
  in
  Log.debug (fun m ->
      m "step %s: %d rows -> %d groups -> %d survive (sip pruned %d)" s.name
        tab_rows groups survived pruned);
  ( survivors,
    {
      step_name = s.name;
      tabulated_rows = tab_rows;
      groups;
      survivors = survived;
      seconds = Obs.now () -. t0;
      reused_from = None;
      memo_hit = false;
      sip_pruned = pruned;
    } )

let run_with_report ?(options = default_options) catalog (plan : Plan.t) =
  Obs.with_span "plan.run"
    ~attrs:[ "steps", Obs.Int (List.length plan.steps + 1) ]
  @@ fun () ->
  let work = Catalog.copy catalog in
  let sips : (int * int, Sip.t) Hashtbl.t = Hashtbl.create 8 in
  (* The plan-local memo: signature -> (first step name, its relation)
     for every step this run has produced.  It serves Ex. 3.1's symmetry
     ("the set of $1's that survive ... is exactly the same as the set of
     $2's") and any other α-equivalent repeat, whatever the catalog's
     memo budget. *)
  let local : (string, string * Relation.t) Hashtbl.t = Hashtbl.create 8 in
  (* One step, one lookup in two scopes: an α-equivalent step of this
     plan, then the catalog's cross-level memo (possibly written by a
     {e previous} plan — the k-1 levelwise pass, typically).  A hit
     registers the {e stored relation object}, so its (id, version) pair
     flows into the signatures of this plan's later steps and an entire
     plan prefix can cascade into hits.  A miss computes the step and
     publishes it into both scopes.  The auxiliary steps only bound the
     final one, so they are bounding FILTERs ({!Eval.groups}). *)
  let exec_step ~defined ~bounding (s : Plan.step) =
    (* Step boundaries are the plan executor's cancellation checkpoints:
       a governed deadline interrupts a plan between steps. *)
    Qf_governor.Governor.check ();
    let key =
      if options.reuse then
        Stepsig.of_step ~work ~filter:plan.flock.filter ~bounding s
      else None
    in
    let shortcut =
      Option.bind key (fun k ->
          match Hashtbl.find_opt local k with
          | Some (earlier, rel) -> Some (rel, Some earlier)
          | None ->
            Option.map
              (fun rel ->
                Hashtbl.replace local k (s.name, rel);
                rel, None)
              (Catalog.memo_find work k))
    in
    match shortcut with
    | Some (rel, reused_from) ->
      let t0 = Obs.now () in
      Catalog.add work s.name rel;
      let rows = Relation.cardinal rel in
      if Obs.enabled () then
        Obs.with_span "filter.step"
          ~attrs:
            [
              "step", Obs.Str s.name;
              (match reused_from with
              | Some earlier -> "reused_from", Obs.Str earlier
              | None -> "memo", Obs.Str "hit");
              "rows_out", Obs.Int rows;
            ]
          (fun () -> ());
      ( rel,
        {
          step_name =
            (match reused_from with
            | Some earlier -> s.name ^ " (= " ^ earlier ^ ")"
            | None -> s.name ^ " (memo)");
          tabulated_rows = 0;
          groups = rows;
          survivors = rows;
          seconds = Obs.now () -. t0;
          reused_from;
          memo_hit = reused_from = None;
          sip_pruned = 0;
        } )
    | None ->
      let rel, report =
        run_step work ~options ~step_names:defined ~sips ~bounding
          plan.flock s
      in
      Option.iter
        (fun k ->
          Hashtbl.replace local k (s.name, rel);
          Catalog.memo_add work k rel)
        key;
      rel, report
  in
  let _, reports =
    List.fold_left
      (fun (defined, acc) (s : Plan.step) ->
        let _, report = exec_step ~defined ~bounding:true s in
        s.name :: defined, report :: acc)
      ([], []) plan.steps
  in
  let step_names = List.map (fun (s : Plan.step) -> s.Plan.name) plan.steps in
  let result, final_report =
    exec_step ~defined:step_names ~bounding:false plan.final
  in
  Obs.set_attr "rows_out" (Obs.Int (Relation.cardinal result));
  { result; steps = List.rev reports @ [ final_report ] }

let run ?options catalog plan = (run_with_report ?options catalog plan).result
