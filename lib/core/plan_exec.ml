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
   the query".  Two mechanisms:

   {ul
   {- For every {e unary} ok-subgoal [ok($p)] in a rule, each base subgoal
      with [$p] in some argument position is replaced by the materialized
      reduction of its relation against a {!Sip} reducer built over [ok]'s
      column — exact below {!Sip.exact_cutoff}, a Bloom filter above it.
      The reduction may over-approximate (Bloom false positives); that is
      sound because the [ok] subgoal itself stays in the body, so spurious
      survivors are eliminated by the actual join.  {!Cost.should_reduce}
      gates placement: when [ok] covers (almost) the whole column domain
      the reduction cannot prune and is skipped.}
   {- For every {e multi-parameter} ok-subgoal [ok($p, $q, ...)], a per
      column reducer is handed to the evaluator ([Eval.filter_query
      ~sip]), which consults it the moment a binding for that parameter is
      about to be created — pruning posting-list extensions before they
      enter the environment relation or the step's group table.}}

   The binding-passing evaluator prunes the first parameter it binds for
   free, but later extensions scan unreduced posting lists; materializing
   the reduction is what yields the multiplicative (per-parameter) savings.
   Reductions and reducers are memoized across rules and steps of one plan
   execution, keyed by the ok relation's {!Relation.id}, so step names
   that alias one relation share them; a reduction is named after the
   first ok step that built it, which keeps span attributes
   deterministic.  [pruned] accumulates rows removed by materialized
   reductions (the deterministic [base - reduced] difference). *)
let reduce_rule work ~step_names ~cache ~sips ~pruned (r : Ast.rule) =
  let param_oks =
    List.filter_map
      (function
        | Ast.Pos { Ast.pred; args }
          when List.mem pred step_names
               && args <> []
               && List.for_all
                    (function Ast.Param _ -> true | _ -> false)
                    args ->
          Some
            ( pred,
              List.map
                (function Ast.Param p -> p | _ -> assert false)
                args )
        | _ -> None)
      r.body
  in
  if param_oks = [] then r, []
  else begin
    (* Reducer over the [rank]-th column of [ok]'s relation, shared
       across rules and steps.  Columns are addressed positionally: step
       outputs carry their own (sorted) parameter names, which differ from
       this step's parameters when the relation was registered by the
       reuse shortcut. *)
    let reducer ok rank =
      let key = Relation.id ok, rank in
      match Hashtbl.find_opt sips key with
      | Some s -> s
      | None ->
        let col = List.nth (Schema.columns (Relation.schema ok)) rank in
        let s = Sip.of_column ok col in
        Hashtbl.replace sips key s;
        s
    in
    let unary_oks =
      List.filter_map
        (function ok, [ p ] -> Some (p, ok) | _ -> None)
        param_oks
    in
    let reduce_atom (a : Ast.atom) =
      if List.mem a.pred step_names then a
      else begin
        let pred = ref a.pred in
        List.iteri
          (fun i arg ->
            match arg with
            | Ast.Param p -> (
              match List.assoc_opt p unary_oks with
              | None -> ()
              | Some ok_name ->
                let ok = Catalog.find work ok_name in
                let key = !pred, i, Relation.id ok in
                match Hashtbl.find_opt cache key with
                | Some reduced_name -> pred := reduced_name
                | None ->
                  let base = Catalog.find work !pred in
                  let col =
                    List.nth (Schema.columns (Relation.schema base)) i
                  in
                  if
                    Cost.should_reduce work ~pred:!pred ~col
                      ~ok_cardinal:(Relation.cardinal ok)
                  then begin
                    let reduced =
                      Sip.filter base ~pos:i (reducer ok 0)
                    in
                    let removed =
                      Relation.cardinal base - Relation.cardinal reduced
                    in
                    pruned := !pruned + removed;
                    if Obs.enabled () then
                      Obs.count "sip.rows_pruned" removed;
                    let reduced_name =
                      Printf.sprintf "%s~%d~%s" !pred i ok_name
                    in
                    Catalog.add work reduced_name reduced;
                    Hashtbl.replace cache key reduced_name;
                    pred := reduced_name
                  end)
            | Ast.Var _ | Ast.Const _ -> ())
          a.args;
        { a with Ast.pred = !pred }
      end
    in
    let body =
      List.map
        (function
          | Ast.Pos a -> Ast.Pos (reduce_atom a)
          | (Ast.Neg _ | Ast.Cmp _) as lit -> lit)
        r.body
    in
    (* Evaluator-side reducers for multi-parameter ok steps (keyed by the
       parameters' binding keys).  The reducer for parameter [p] reads the
       column at [p]'s rank in the subgoal's {e sorted} parameter list —
       the positional bijection under which aliased step outputs are
       α-equivalent. *)
    let sip =
      List.fold_left
        (fun acc (ok_name, params) ->
          if List.length params < 2 then acc
          else begin
            let ok = Catalog.find work ok_name in
            let sorted = List.sort String.compare params in
            List.fold_left
              (fun acc p ->
                let key = "$" ^ p in
                if List.mem_assoc key acc then acc
                else
                  match List.find_index (String.equal p) sorted with
                  | Some rank -> (key, reducer ok rank) :: acc
                  | None -> acc)
              acc params
          end)
        [] param_oks
    in
    { r with Ast.body }, sip
  end

let run_step work ~options ~step_names ~cache ~sips ~bounding
    (flock : Flock.t) (s : Plan.step) =
  let t0 = Obs.now () in
  let pruned = ref 0 in
  let compute () =
    let query, sip =
      if options.semijoin_reduction then begin
        let reduced =
          List.map
            (reduce_rule work ~step_names ~cache ~sips ~pruned)
            s.query
        in
        ( List.map fst reduced,
          List.fold_left
            (fun acc (_, sip) ->
              List.fold_left
                (fun acc (k, r) ->
                  if List.mem_assoc k acc then acc else (k, r) :: acc)
                acc sip)
            [] reduced )
      end
      else s.query, []
    in
    let func =
      Filter.to_aggregate flock.filter
        ~head_columns:(Eval.head_columns (List.hd s.query))
    in
    let survivors, tab_rows, groups =
      Eval.filter_query ~sip ~bounding work query
        ~keys:(List.map (fun p -> "$" ^ p) s.params)
        ~func ~threshold:flock.filter.threshold
    in
    Catalog.add work s.name survivors;
    survivors, tab_rows, groups, Relation.cardinal survivors
  in
  let survivors, tab_rows, groups, survived =
    if not (Obs.enabled ()) then compute ()
    else
      (* The FILTER-step span: rows in, candidate groups, surviving rows,
         the a-priori pruning ratio (surviving fraction) and rows removed
         by semijoin reducers. *)
      Obs.with_span "filter.step" ~attrs:[ "step", Obs.Str s.name ] (fun () ->
          let (_, tab_rows, groups, survived) as r = compute () in
          Obs.set_attr "rows_in" (Obs.Int tab_rows);
          Obs.set_attr "groups" (Obs.Int groups);
          Obs.set_attr "rows_out" (Obs.Int survived);
          Obs.set_attr "pruning_ratio"
            (Obs.Float
               (if groups = 0 then 1.
                else float_of_int survived /. float_of_int groups));
          if options.semijoin_reduction then
            Obs.set_attr "sip_pruned" (Obs.Int !pruned);
          r)
  in
  Log.debug (fun m ->
      m "step %s: %d rows -> %d groups -> %d survive (sip pruned %d)" s.name
        tab_rows groups survived !pruned);
  ( survivors,
    {
      step_name = s.name;
      tabulated_rows = tab_rows;
      groups;
      survivors = survived;
      seconds = Obs.now () -. t0;
      reused_from = None;
      memo_hit = false;
      sip_pruned = !pruned;
    } )

let run_with_report ?(options = default_options) catalog (plan : Plan.t) =
  Obs.with_span "plan.run"
    ~attrs:[ "steps", Obs.Int (List.length plan.steps + 1) ]
  @@ fun () ->
  let work = Catalog.copy catalog in
  let cache : (string * int * int, string) Hashtbl.t = Hashtbl.create 8 in
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
        run_step work ~options ~step_names:defined ~cache ~sips ~bounding
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
