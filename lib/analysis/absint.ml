module Ast = Qf_datalog.Ast
module Sizes = Qf_datalog.Sizes
module Value = Qf_relational.Value
module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
module Schema = Qf_relational.Schema
module Statistics = Qf_relational.Statistics
module Flock = Qf_core.Flock
module Filter = Qf_core.Filter
module Parse = Qf_core.Parse
module D = Diagnostic

(* {1 Interval domain}

   Endpoints are values of the total {!Value.compare} order, each carrying
   an inclusivity flag; [None] is unbounded.  Everything is interpreted
   over the {e dense} order (ints and reals interleave, strings follow),
   so [is_empty] never assumes discreteness — the only provable emptiness
   is a crossed or pinched-strict pair of endpoints.  That keeps every
   dead-code verdict sound for all value kinds. *)

type bound = (Value.t * bool) option

type interval = { lo : bound; hi : bound }

let top = { lo = None; hi = None }

let singleton v = { lo = Some (v, true); hi = Some (v, true) }

(* Tighter lower bound of the two (for meet). *)
let max_lo a b =
  match a, b with
  | None, b -> b
  | a, None -> a
  | Some (va, ia), Some (vb, ib) ->
    let c = Value.compare va vb in
    if c > 0 then a
    else if c < 0 then b
    else Some (va, ia && ib)

let min_hi a b =
  match a, b with
  | None, b -> b
  | a, None -> a
  | Some (va, ia), Some (vb, ib) ->
    let c = Value.compare va vb in
    if c < 0 then a
    else if c > 0 then b
    else Some (va, ia && ib)

(* Looser lower bound of the two (for join). *)
let min_lo a b =
  match a, b with
  | None, _ | _, None -> None
  | Some (va, ia), Some (vb, ib) ->
    let c = Value.compare va vb in
    if c < 0 then a
    else if c > 0 then b
    else Some (va, ia || ib)

let max_hi a b =
  match a, b with
  | None, _ | _, None -> None
  | Some (va, ia), Some (vb, ib) ->
    let c = Value.compare va vb in
    if c > 0 then a
    else if c < 0 then b
    else Some (va, ia || ib)

let meet a b = { lo = max_lo a.lo b.lo; hi = min_hi a.hi b.hi }
let join a b = { lo = min_lo a.lo b.lo; hi = max_hi a.hi b.hi }

let is_empty { lo; hi } =
  match lo, hi with
  | Some (vl, il), Some (vh, ih) ->
    let c = Value.compare vl vh in
    c > 0 || (c = 0 && not (il && ih))
  | _ -> false

let equal_bound a b =
  match a, b with
  | None, None -> true
  | Some (va, ia), Some (vb, ib) -> ia = ib && Value.compare va vb = 0
  | _ -> false

let equal_interval a b = equal_bound a.lo b.lo && equal_bound a.hi b.hi

(* {1 Environments}

   Sizes come from the one size model; the abstract domain adds each
   column's certified range from its relation's catalog profile. *)

type env = { catalog : Catalog.t; sizes : Sizes.t }

let environment catalog = { catalog; sizes = Sizes.of_catalog catalog }

(* The certified range of every column of [pred]; [None] when unknown. *)
let column_intervals env pred =
  Option.map
    (fun rel ->
      let stats = Catalog.stats env.catalog pred in
      List.map
        (fun c ->
          let p = Statistics.column_profile stats c in
          match p.Statistics.min_value, p.Statistics.max_value with
          | Some lo, Some hi -> { lo = Some (lo, true); hi = Some (hi, true) }
          | _ -> (* empty relation: the column holds no value at all *)
            { lo = Some (Value.Int 0, false); hi = Some (Value.Int 0, false) })
        (Schema.columns (Relation.schema rel)))
    (Catalog.find_opt env.catalog pred)

(* {1 Abstract state}

   One interval per binding key ({!Ast.binding_key}); keys never seen are
   top.  Equality constraints are handled by meeting both sides and
   re-running to a fixpoint rather than by a union-find — rule bodies are
   tiny, and the fixpoint also settles chains like [X = Y, Y < 3]. *)

type state = (string, interval) Hashtbl.t

let state_get (st : state) key =
  Option.value ~default:top (Hashtbl.find_opt st key)

let refine st key iv changed =
  let cur = state_get st key in
  let next = meet cur iv in
  if not (equal_interval cur next) then begin
    Hashtbl.replace st key next;
    changed := true
  end

(* The interval denoted by a term in the current state. *)
let term_interval st = function
  | Ast.Const v -> singleton v
  | (Ast.Var _ | Ast.Param _) as t -> state_get st (Ast.binding_key t)

(* Narrow a term's interval; constants cannot be narrowed. *)
let term_refine st t iv changed =
  match t with
  | Ast.Const _ -> ()
  | Ast.Var _ | Ast.Param _ -> refine st (Ast.binding_key t) iv changed

(* Propagate one comparison [l cmp r] into the state.  Each rule below is
   an implication valid for every concrete pair in the concretization:
   e.g. from [a < b] and [b <= hi(b)] follows [a < hi(b)]. *)
let propagate_cmp st (l, cmp, r) changed =
  let il = term_interval st l and ir = term_interval st r in
  let strict_hi = function
    | Some (v, _) -> { lo = None; hi = Some (v, false) }
    | None -> top
  and loose_hi = function
    | Some (v, i) -> { lo = None; hi = Some (v, i) }
    | None -> top
  and strict_lo = function
    | Some (v, _) -> { lo = Some (v, false); hi = None }
    | None -> top
  and loose_lo = function
    | Some (v, i) -> { lo = Some (v, i); hi = None }
    | None -> top
  in
  match cmp with
  | Ast.Eq ->
    let both = meet il ir in
    term_refine st l both changed;
    term_refine st r both changed
  | Ast.Lt ->
    term_refine st l (strict_hi ir.hi) changed;
    term_refine st r (strict_lo il.lo) changed
  | Ast.Le ->
    term_refine st l (loose_hi ir.hi) changed;
    term_refine st r (loose_lo il.lo) changed
  | Ast.Gt ->
    term_refine st l (strict_lo ir.lo) changed;
    term_refine st r (strict_hi il.hi) changed
  | Ast.Ge ->
    term_refine st l (loose_lo ir.lo) changed;
    term_refine st r (loose_hi il.hi) changed
  | Ast.Ne ->
    (* Only a point excludes anything: [a <> c] sharpens an inclusive
       endpoint at [c] to a strict one. *)
    let exclude_point t other =
      match other.lo, other.hi with
      | Some (v, true), Some (v', true) when Value.compare v v' = 0 ->
        let cur = term_interval st t in
        let lo' =
          match cur.lo with
          | Some (w, true) when Value.compare w v = 0 -> Some (w, false)
          | b -> b
        and hi' =
          match cur.hi with
          | Some (w, true) when Value.compare w v = 0 -> Some (w, false)
          | b -> b
        in
        term_refine st t { lo = lo'; hi = hi' } changed
      | _ -> ()
    in
    exclude_point l ir;
    exclude_point r il

(* Is [l cmp r] provably unsatisfiable given the current intervals?
   Conservative: [false] means "don't know", never "satisfiable". *)
let cmp_unsat st (l, cmp, r) =
  let il = term_interval st l and ir = term_interval st r in
  if is_empty il || is_empty ir then true
  else
    (* a >= b for every (a, b) in il x ir:  lo(il) above hi(ir). *)
    let always_ge a b =
      match a.lo, b.hi with
      | Some (vl, _), Some (vh, _) -> Value.compare vl vh >= 0
      | _ -> false
    (* a > b for every pair: lo(il) strictly above hi(ir), or touching
       with a strict end on either side. *)
    and always_gt a b =
      match a.lo, b.hi with
      | Some (vl, il'), Some (vh, ih) ->
        let c = Value.compare vl vh in
        c > 0 || (c = 0 && not (il' && ih))
      | _ -> false
    in
    match cmp with
    | Ast.Lt -> always_ge il ir
    | Ast.Le -> always_gt il ir
    | Ast.Gt -> always_ge ir il
    | Ast.Ge -> always_gt ir il
    | Ast.Eq -> is_empty (meet il ir)
    | Ast.Ne -> (
      (* Both pinned to the same single point. *)
      match il.lo, il.hi, ir.lo, ir.hi with
      | Some (a, true), Some (a', true), Some (b, true), Some (b', true) ->
        Value.compare a a' = 0 && Value.compare b b' = 0
        && Value.compare a b = 0
      | _ -> false)

(* {1 Per-rule analysis} *)

type dead_reason =
  | Empty_relation of string
  | Constant_out_of_range of string * Value.t
  | Unsat_comparison of Ast.term * Ast.comparison * Ast.term
  | Empty_interval of string

type rule_report = {
  dead : dead_reason option;
  intervals : (string * interval) list;
  rows_bound : float;
}

(* Seed the state from the positive subgoals: each var/param occurrence
   meets the column's certified range; a constant occurrence outside the
   range makes the subgoal (and hence the rule) dead. *)
let seed_state env (r : Ast.rule) st =
  let dead = ref None in
  let changed = ref false in
  List.iter
    (fun (a : Ast.atom) ->
      if !dead = None then
        match Sizes.find env.sizes a.pred, column_intervals env a.pred with
        | None, _ | _, None ->
          ()  (* unknown predicate: no information, stay sound *)
        | Some p, Some ivs ->
          if p.Sizes.rows <= 0. then dead := Some (Empty_relation a.pred)
          else
            List.iteri
              (fun i arg ->
                if !dead = None then
                  match List.nth_opt ivs i with
                  | None -> ()
                  | Some iv -> (
                    match arg with
                    | Ast.Const v ->
                      if is_empty (meet (singleton v) iv) then
                        dead := Some (Constant_out_of_range (a.pred, v))
                    | Ast.Var _ | Ast.Param _ -> term_refine st arg iv changed))
              a.args)
    (Ast.positive_atoms r);
  !dead

(* Propagate the rule's comparisons to a fixpoint.  Termination: every
   refinement strictly shrinks some interval, and each interval can only
   take endpoints among the finitely many (value, flag) pairs derived
   from the seeds and the rule's constants; a generous iteration cap
   backstops it anyway. *)
let run_fixpoint st (cmps : (Ast.term * Ast.comparison * Ast.term) list) =
  let iterations = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iterations < 64 do
    incr iterations;
    let changed = ref false in
    List.iter (fun c -> propagate_cmp st c changed) cmps;
    continue_ := !changed
  done

let state_dead st cmps =
  let pinched =
    Hashtbl.fold
      (fun key iv acc ->
        match acc with
        | Some _ -> acc
        | None -> if is_empty iv then Some (Empty_interval key) else None)
      st None
  in
  match pinched with
  | Some _ as d -> d
  | None ->
    List.find_map
      (fun (l, c, r) ->
        if cmp_unsat st (l, c, r) then Some (Unsat_comparison (l, c, r))
        else None)
      cmps

(* Certified upper bound on distinct tabulated tuples: a greedy product
   over the positive subgoals.  Invariant: [rows_bound] bounds the number
   of distinct assignments to the keys in [bound_keys]; each atom
   multiplies it by a bound on matching tuples per assignment,
   {!Sizes.max_matches}, where an unbound argument the abstract state
   pins to a single point behaves like a constant: at most max-frequency
   tuples carry that one value.  Negations and comparisons only filter,
   so they are ignored.  Any order is sound; the product is taken along
   the evaluator's join order ({!Qf_datalog.Eval.greedy_order}), ranking
   atoms by their bounds, which takes the smallest first. *)
let rule_rows_bound env st (r : Ast.rule) =
  let atoms = Ast.positive_atoms r in
  let pinned arg =
    match term_interval st arg with
    | { lo = Some (v, true); hi = Some (v', true) } -> Value.compare v v' = 0
    | _ -> false
  in
  let max_matches = Sizes.max_matches ~pinned env.sizes in
  if atoms = [] then 0.
  else
    (* Positive atoms only: [lint --absint] analyzes unsafe rules too. *)
    List.fold_left
      (fun acc (bound, lit) ->
        match lit with
        | Ast.Pos a -> acc *. max_matches bound a
        | Ast.Neg _ | Ast.Cmp _ -> acc)
      1.
      (Qf_datalog.Eval.greedy_order ~matches:max_matches
         (List.map (fun a -> Ast.Pos a) atoms))

let rule_cmps (r : Ast.rule) =
  List.filter_map
    (function
      | Ast.Cmp (l, c, rt) -> Some (l, c, rt)
      | Ast.Pos _ | Ast.Neg _ -> None)
    r.body

let analyze env (r : Ast.rule) =
  let st : state = Hashtbl.create 16 in
  let dead =
    match seed_state env r st with
    | Some _ as d -> d
    | None -> (
      let cmps = rule_cmps r in
      (* Refute comparisons against the seeded ranges first: an unsat
         verdict found here carries the comparison's own span, which the
         post-fixpoint scan would lose to a pinched-interval verdict. *)
      match
        List.find_map
          (fun ((l, c, rt) as cmp) ->
            if cmp_unsat st cmp then Some (Unsat_comparison (l, c, rt))
            else None)
          cmps
      with
      | Some _ as d -> d
      | None ->
        run_fixpoint st cmps;
        state_dead st cmps)
  in
  let intervals =
    Hashtbl.fold (fun k iv acc -> (k, iv) :: acc) st []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let rows_bound =
    match dead with Some _ -> 0. | None -> rule_rows_bound env st r
  in
  { dead; intervals; rows_bound }

let analyze_rule catalog r = analyze (environment catalog) r

(* {1 Survivor bounds} *)

(* The certified interval of the head column the filter aggregates, joined
   across live rules (a surviving tuple comes from {e some} rule). *)
let summand_interval reports (rules : Ast.rule list) column =
  let per_rule (report : rule_report) (r : Ast.rule) =
    match report.dead with
    | Some _ -> None
    | None ->
      (* Head columns are named after head variables (constants get
         synthetic names that cannot collide with a real variable we can
         bound); find the head arg whose variable is [column]. *)
      let term =
        List.find_opt
          (function
            | Ast.Var v -> String.equal v column
            | Ast.Param _ | Ast.Const _ -> false)
          r.head.args
      in
      Option.map
        (fun t ->
          match List.assoc_opt (Ast.binding_key t) report.intervals with
          | Some iv -> iv
          | None -> top)
        term
  in
  let rec combine acc reports rules =
    match reports, rules with
    | [], [] -> acc
    | rep :: reps, r :: rs -> (
      match per_rule rep r with
      | None -> combine acc reps rs  (* dead rule contributes nothing *)
      | Some iv -> (
        match acc with
        | None -> combine (Some iv) reps rs
        | Some a -> combine (Some (join a iv)) reps rs))
    | _ -> acc
  in
  combine None reports rules

let hi_float iv =
  match iv.hi with
  | Some (v, _) -> Value.to_float v
  | None -> None

(* Survivor bound of a FILTER under [filter].  [rows] and [groups] are
   certified tabulation/group bounds; [summand] the certified interval of
   the aggregated head column (if any). *)
let survivors_bound (filter : Filter.t) ~rows ~groups ~summand =
  let t = filter.threshold in
  match filter.agg with
  | Filter.Count ->
    let c = Float.ceil t in
    if c >= 1. then Float.min groups (Float.floor (rows /. c)) else groups
  | Filter.Sum _ -> (
    match summand with
    | None -> groups
    | Some iv -> (
      match hi_float iv with
      | Some h when t > 0. ->
        if h <= 0. then 0.
        else Float.min groups (Float.floor (rows *. h /. t))
      | _ -> groups))
  | Filter.Max _ | Filter.Min _ -> (
    (* A surviving group needs some member with the column >= t, so a
       certified column maximum below t empties the result. *)
    match summand with
    | None -> groups
    | Some iv -> (
      match hi_float iv with
      | Some h when h < t -> 0.
      | _ -> groups))

(* {1 Monotonicity certificates} *)

type monotonicity =
  | Monotone
  | Monotone_sum_certified of string * Value.t
  | Unverified_sum of string * Value.t option
  | Non_monotone

let monotonicity catalog (flock : Flock.t) =
  match flock.filter.agg with
  | Filter.Count | Filter.Max _ -> Monotone
  | Filter.Min _ -> Non_monotone
  | Filter.Sum column ->
    let env = environment catalog in
    let reports = List.map (analyze env) flock.query in
    let summand = summand_interval reports flock.query column in
    let lo =
      Option.bind summand (fun iv ->
          match iv.lo with Some (v, _) -> Some v | None -> None)
    in
    (match lo with
    | Some v -> (
      match Value.to_float v with
      | Some f when f >= 0. -> Monotone_sum_certified (column, v)
      | Some _ -> Unverified_sum (column, Some v)
      | None -> Unverified_sum (column, Some v))
    | None -> Unverified_sum (column, None))

(* {1 Lint integration: QF07x} *)

let pp_term = function
  | Ast.Var v -> v
  | Ast.Param p -> "$" ^ p
  | Ast.Const v -> Value.to_string v

(* Diagnose one located rule: re-run the analysis, then attribute the
   verdict to a subgoal span.  Rules touching unknown predicates are
   skipped — QF020 already fires and any verdict would rest on missing
   statistics. *)
let check_rule env (lr : Ast.located_rule) =
  let r = lr.Ast.lr_rule in
  let known (a : Ast.atom) = Sizes.find env.sizes a.pred <> None in
  let all_known =
    List.for_all
      (function Ast.Pos a | Ast.Neg a -> known a | Ast.Cmp _ -> true)
      r.body
  in
  if not all_known then []
  else
    let report = analyze env r in
    match report.dead with
    | None -> []
    | Some reason ->
      let span_of_literal pred_test =
        let rec go body spans =
          match body, spans with
          | lit :: ls, sp :: sps ->
            if pred_test lit then sp else go ls sps
          | _ -> lr.Ast.lr_span
        in
        go r.body lr.Ast.lr_body
      in
      (match reason with
      | Empty_relation pred ->
        let sp =
          span_of_literal (function
            | Ast.Pos a -> String.equal a.Ast.pred pred
            | _ -> false)
        in
        [ D.warningf D.QF071 sp
            "subgoal %s can never match: the stored relation is empty, so \
             this rule contributes no answers"
            pred ]
      | Constant_out_of_range (pred, v) ->
        let sp =
          span_of_literal (function
            | Ast.Pos a ->
              String.equal a.Ast.pred pred
              && List.exists (fun t -> Ast.equal_term t (Ast.Const v)) a.Ast.args
            | _ -> false)
        in
        [ D.warningf D.QF071 sp
            "subgoal %s can never match: constant %s lies outside the \
             column's certified range, so this rule contributes no answers"
            pred (Value.to_string v) ]
      | Unsat_comparison (l, c, rt) ->
        let sp =
          span_of_literal (function
            | Ast.Cmp (l', c', r') ->
              Ast.equal_term l l' && c = c' && Ast.equal_term rt r'
            | _ -> false)
        in
        [ D.warningf D.QF070 sp
            "comparison %s %s %s is unsatisfiable under the certified \
             column ranges: this rule contributes no answers"
            (pp_term l)
            (Ast.comparison_to_string c)
            (pp_term rt) ]
      | Empty_interval key ->
        [ D.warningf D.QF070 lr.Ast.lr_span
            "the certified range of %s is empty under this rule's \
             constraints: the rule contributes no answers"
            key ])

let check_program ~catalog (lp : Parse.located_program) =
  let env = environment catalog in
  let per_rule = List.concat_map (check_rule env) lp.Parse.l_query in
  let rules = List.map (fun lr -> lr.Ast.lr_rule) lp.Parse.l_query in
  let known_rule (r : Ast.rule) =
    List.for_all
      (function
        | Ast.Pos a | Ast.Neg a -> Sizes.find env.sizes a.pred <> None
        | Ast.Cmp _ -> true)
      r.body
  in
  let flock_level =
    if rules = [] || not (List.for_all known_rule rules) then []
    else begin
      let reports = List.map (analyze env) rules in
      let all_dead = List.for_all (fun r -> r.dead <> None) reports in
      let filter = lp.Parse.l_filter in
      let empty_by_bound =
        (* The trivial one-step plan's survivor bound: certified empty
           when even the unpruned result cannot pass the filter. *)
        let params = Ast.query_params rules in
        let rows =
          List.fold_left (fun acc (r : rule_report) -> acc +. r.rows_bound) 0. reports
        in
        let groups =
          (* Per live rule: the product of its parameters' distinct-count
             bounds, capped by its row bound (grouping only merges
             tabulated tuples); an output tuple satisfies some rule, so
             the per-rule bounds add up. *)
          List.fold_left2
            (fun acc (rep : rule_report) (r : Ast.rule) ->
              match rep.dead with
              | Some _ -> acc
              | None ->
                let atoms = Ast.positive_atoms r in
                acc
                +. Float.min rep.rows_bound
                     (List.fold_left
                        (fun acc p -> acc *. Sizes.param_ndv env.sizes atoms p)
                        1. params))
            0. reports rules
        in
        let summand =
          match filter.Filter.agg with
          | Filter.Count -> None
          | Filter.Sum c | Filter.Min c | Filter.Max c ->
            summand_interval reports rules c
        in
        survivors_bound filter ~rows ~groups ~summand = 0.
      in
      let empties =
        if all_dead then
          [ D.warningf D.QF072 lp.Parse.l_filter_span
              "every rule of the query is certifiably dead: the flock's \
               result is empty on this catalog" ]
        else if empty_by_bound then
          [ D.warningf D.QF072 lp.Parse.l_filter_span
              "the certified upper bound on surviving assignments is 0: \
               the flock's result is empty on this catalog" ]
        else []
      in
      let sum_issue =
        match filter.Filter.agg with
        | Filter.Sum column -> (
          match Flock.make rules filter with
          | Error _ -> []
          | Ok flock -> (
            match monotonicity catalog flock with
            | Unverified_sum (_, witness) ->
              [ D.warningf D.QF073 lp.Parse.l_filter_span
                  "SUM(%s) is treated as monotone assuming non-negative \
                   summands, but the certified minimum of %s is %s: a-priori \
                   pruning may be unsound on this data"
                  column column
                  (match witness with
                  | Some v -> Value.to_string v
                  | None -> "unknown") ]
            | Monotone | Monotone_sum_certified _ | Non_monotone -> []))
        | Filter.Count | Filter.Min _ | Filter.Max _ -> []
      in
      empties @ sum_issue
    end
  in
  D.sort (per_rule @ flock_level)
