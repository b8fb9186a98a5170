module Ast = Qf_datalog.Ast
module Containment = Qf_datalog.Containment
module Value = Qf_relational.Value
module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
module D = Diagnostic
module Parse = Qf_core.Parse
module Filter = Qf_core.Filter

let term_label = function
  | Ast.Var v -> v
  | Ast.Param p -> "$" ^ p
  | Ast.Const v -> Value.to_string v

(* {1 Pass 1: safety, Sec. 3.3}

   Deliberately re-implemented from the paper rather than calling
   {!Qf_datalog.Safety}: the test suite checks the two agree on random
   rules, so each is a cross-check on the other. *)

let positively_bound_keys (r : Ast.rule) =
  List.concat_map
    (function
      | Ast.Pos a ->
        List.filter_map
          (function
            | (Ast.Var _ | Ast.Param _) as t -> Some (Ast.binding_key t)
            | Ast.Const _ -> None)
          a.Ast.args
      | Ast.Neg _ | Ast.Cmp _ -> [])
    r.body

let safety_rule (lr : Ast.located_rule) =
  let r = lr.Ast.lr_rule in
  let bound = positively_bound_keys r in
  let is_bound t = List.mem (Ast.binding_key t) bound in
  let head =
    List.concat_map
      (fun t ->
        match t with
        | Ast.Param p ->
          [ D.errorf D.QF013 lr.Ast.lr_head
              "parameter $%s appears in the head; parameters are the \
               flock's output, not head columns"
              p ]
        | Ast.Var v when not (is_bound t) ->
          [ D.errorf D.QF010 lr.Ast.lr_head
              "head variable %s does not occur in a positive subgoal \
               (violates safety condition (1) of Sec. 3.3)"
              v ]
        | Ast.Var _ | Ast.Const _ -> [])
      r.head.args
  in
  let body =
    List.concat
      (List.map2
         (fun lit span ->
           match lit with
           | Ast.Pos _ -> []
           | Ast.Neg a ->
             List.filter_map
               (function
                 | Ast.Const _ -> None
                 | (Ast.Var _ | Ast.Param _) as t ->
                   if is_bound t then None
                   else
                     Some
                       (D.errorf D.QF011 span
                          "%s occurs in the negated subgoal NOT %s but in \
                           no positive subgoal (violates safety condition \
                           (2) of Sec. 3.3)"
                          (term_label t) a.Ast.pred))
               a.Ast.args
           | Ast.Cmp (l, _, rt) ->
             List.filter_map
               (function
                 | Ast.Const _ -> None
                 | (Ast.Var _ | Ast.Param _) as t ->
                   if is_bound t then None
                   else
                     Some
                       (D.errorf D.QF012 span
                          "%s occurs in an arithmetic subgoal but in no \
                           positive subgoal (violates safety condition (3) \
                           of Sec. 3.3)"
                          (term_label t)))
               [ l; rt ])
         r.body lr.Ast.lr_body)
  in
  head @ body

let rule_is_qf_safe r =
  match
    List.filter (fun d -> d.D.severity = D.Error) (safety_rule (Ast.locate r))
  with
  | [] -> Ok ()
  | d :: _ -> Error d.D.message

(* {1 Pass 2: union well-formedness, Sec. 3.4} *)

let union_pass (query : Ast.located_rule list) =
  match query with
  | [] -> []
  | first :: rest ->
    let f = first.Ast.lr_rule in
    let per_rule i (lr : Ast.located_rule) =
      let r = lr.Ast.lr_rule in
      let head_issues =
        if not (String.equal r.head.pred f.head.pred) then
          [ D.errorf D.QF002 lr.Ast.lr_head
              "rule %d of the union defines %s but rule 0 defines %s; all \
               rules of a flock share one head predicate"
              i r.head.pred f.head.pred ]
        else if List.length r.head.args <> List.length f.head.args then
          [ D.errorf D.QF002 lr.Ast.lr_head
              "rule %d of the union gives %s arity %d but rule 0 gives it \
               arity %d"
              i r.head.pred
              (List.length r.head.args)
              (List.length f.head.args) ]
        else []
      in
      let params_issues =
        if Ast.rule_params r <> Ast.rule_params f then
          [ D.errorf D.QF002 lr.Ast.lr_head
              "rule %d of the union mentions parameters {%s} but rule 0 \
               mentions {%s}; every rule must mention the same parameters \
               (Sec. 3.4)"
              i
              (String.concat ","
                 (List.map (fun p -> "$" ^ p) (Ast.rule_params r)))
              (String.concat ","
                 (List.map (fun p -> "$" ^ p) (Ast.rule_params f))) ]
        else []
      in
      head_issues @ params_issues
    in
    let mismatches = List.concat (List.mapi (fun i lr -> per_rule (i + 1) lr) rest) in
    let no_params =
      if Ast.query_params (List.map (fun lr -> lr.Ast.lr_rule) query) = [] then
        [ D.errorf D.QF014 first.Ast.lr_head
            "the query mentions no $parameters: there is nothing to mine" ]
      else []
    in
    mismatches @ no_params

(* {1 Pass 3: schema and catalog consistency} *)

let body_atoms (lr : Ast.located_rule) =
  List.concat
    (List.map2
       (fun lit span ->
         match lit with
         | Ast.Pos a | Ast.Neg a -> [ a, span ]
         | Ast.Cmp _ -> [])
       lr.Ast.lr_rule.Ast.body lr.Ast.lr_body)

let schema_pass ?catalog ~(views : Ast.located_rule list)
    ~(query : Ast.located_rule list) () =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let seen : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let view_heads =
    List.map (fun lr -> lr.Ast.lr_rule.Ast.head.pred) views
  in
  (* View heads declare their predicate's arity. *)
  List.iter
    (fun (lr : Ast.located_rule) ->
      let h = lr.Ast.lr_rule.Ast.head in
      let k = List.length h.args in
      match Hashtbl.find_opt seen h.pred with
      | Some k0 when k0 <> k ->
        emit
          (D.errorf D.QF021 lr.Ast.lr_head
             "view %s is defined with arity %d here but arity %d earlier"
             h.pred k k0)
      | Some _ -> ()
      | None -> Hashtbl.add seen h.pred k)
    views;
  let check_atom (a : Ast.atom) span =
    let k = List.length a.args in
    let stored =
      match catalog with
      | Some cat when Catalog.mem cat a.pred ->
        Some (Relation.arity (Catalog.find cat a.pred))
      | _ -> None
    in
    match stored with
    | Some sk ->
      if sk <> k then
        emit
          (D.errorf D.QF022 span
             "%s is used with arity %d but the stored relation has %d \
              column%s"
             a.pred k sk
             (if sk = 1 then "" else "s"))
    | None -> (
      (match catalog with
      | Some _ when not (List.mem a.pred view_heads) ->
        if not (Hashtbl.mem seen ("?unknown:" ^ a.pred)) then begin
          Hashtbl.add seen ("?unknown:" ^ a.pred) 0;
          emit
            (D.errorf D.QF020 span
               "unknown relation %s: it is neither in the catalog nor \
                defined by a view"
               a.pred)
        end
      | _ -> ());
      match Hashtbl.find_opt seen a.pred with
      | Some k0 when k0 <> k ->
        emit
          (D.errorf D.QF021 span
             "%s is used here with arity %d but with arity %d elsewhere in \
              the program"
             a.pred k k0)
      | Some _ -> ()
      | None -> Hashtbl.add seen a.pred k)
  in
  List.iter
    (fun lr -> List.iter (fun (a, sp) -> check_atom a sp) (body_atoms lr))
    (views @ query);
  List.rev !diags

(* {1 Pass 4: redundant subgoals via CQ minimization, Sec. 3.1} *)

let redundancy_pass (lr : Ast.located_rule) =
  let r = lr.Ast.lr_rule in
  if List.length r.body > 12 then []
  else
    let minimized = Containment.minimize r in
    if List.length minimized.Ast.body = List.length r.Ast.body then []
    else begin
      (* [minimize] deletes whole literals and keeps order: align the
         minimized body against the original as a subsequence; whatever
         fails to align was deleted. *)
      let rec diff body spans kept acc =
        match body, spans with
        | [], [] -> List.rev acc
        | lit :: ls, sp :: sps -> (
          match kept with
          | k :: ks when Ast.equal_literal lit k -> diff ls sps ks acc
          | _ ->
            diff ls sps kept
              (D.warningf D.QF030 sp
                 "subgoal %s is redundant: the rule is equivalent without \
                  it (CQ minimization, Sec. 3.1)"
                 (Qf_datalog.Pretty.literal_to_string lit)
              :: acc))
        | _ -> List.rev acc
      in
      diff r.body lr.Ast.lr_body minimized.Ast.body []
    end

(* {1 Pass 5: arithmetic-subgoal reasoning}

   Constant folding, unsatisfiable single comparisons, and pairwise
   contradiction detection over a dense total order (the {!Value} order
   interleaves ints and reals, so strict bounds never pinch to a single
   integer). *)

type relset = { lt : bool; eq : bool; gt : bool }

let relset_of = function
  | Ast.Lt -> { lt = true; eq = false; gt = false }
  | Ast.Le -> { lt = true; eq = true; gt = false }
  | Ast.Gt -> { lt = false; eq = false; gt = true }
  | Ast.Ge -> { lt = false; eq = true; gt = true }
  | Ast.Eq -> { lt = false; eq = true; gt = false }
  | Ast.Ne -> { lt = true; eq = false; gt = true }

let relset_inter a b =
  { lt = a.lt && b.lt; eq = a.eq && b.eq; gt = a.gt && b.gt }

let relset_empty r = not (r.lt || r.eq || r.gt)

let pp_cmp (l, c, r) =
  Qf_datalog.Pretty.literal_to_string (Ast.Cmp (l, c, r))

(* Satisfiability of [rel(v,c1) in s1 && rel(v,c2) in s2] for one unknown
   [v] over a dense unbounded order. *)
let bounds_satisfiable (s1, c1) (s2, c2) =
  let cmp = Value.compare c1 c2 in
  if cmp = 0 then not (relset_empty (relset_inter s1 s2))
  else
    let lo_s, hi_s = if cmp < 0 then s1, s2 else s2, s1 in
    (* v < lo; v = lo; lo < v < hi; v = hi; v > hi *)
    (lo_s.lt && hi_s.lt)
    || (lo_s.eq && hi_s.lt)
    || (lo_s.gt && hi_s.lt)
    || (lo_s.gt && hi_s.eq)
    || (lo_s.gt && hi_s.gt)

let arithmetic_pass (lr : Ast.located_rule) =
  let cmps =
    List.concat
      (List.map2
         (fun lit span ->
           match lit with
           | Ast.Cmp (l, c, r) -> [ l, c, r, span ]
           | Ast.Pos _ | Ast.Neg _ -> [])
         lr.Ast.lr_rule.Ast.body lr.Ast.lr_body)
  in
  let folded = ref [] in
  let singles =
    List.filter_map
      (fun (l, c, r, span) ->
        match l, r with
        | Ast.Const a, Ast.Const b ->
          folded := span :: !folded;
          if Ast.comparison_eval (Value.compare a b) c then
            Some
              (D.infof D.QF041 span
                 "comparison %s between constants is always true; drop it"
                 (pp_cmp (l, c, r)))
          else
            Some
              (D.errorf D.QF040 span
                 "comparison %s between constants never holds: the rule \
                  can produce no answers"
                 (pp_cmp (l, c, r)))
        | _ when Ast.equal_term l r ->
          folded := span :: !folded;
          let s = relset_of c in
          if s.eq then
            Some
              (D.infof D.QF041 span
                 "%s compares a term with itself and is always true; drop \
                  it"
                 (pp_cmp (l, c, r)))
          else
            Some
              (D.errorf D.QF040 span
                 "%s compares a term with itself and never holds: the rule \
                  can produce no answers"
                 (pp_cmp (l, c, r)))
        | _ -> None)
      cmps
  in
  (* Pairwise contradictions among comparisons not already folded away. *)
  let live =
    List.filter (fun (_, _, _, sp) -> not (List.memq sp !folded)) cmps
  in
  (* Orient [c op t] as [t (flip op) c] so constants sit on the right. *)
  let orient (l, c, r, span) =
    match l, r with
    | Ast.Const _, (Ast.Var _ | Ast.Param _) ->
      r, Ast.flip_comparison c, l, span
    | _ -> l, c, r, span
  in
  let live = List.map orient live in
  let rec pairs acc = function
    | [] -> List.rev acc
    | (l1, o1, r1, _sp1) :: rest ->
      let conflicts =
        List.filter_map
          (fun (l2, o2, r2, sp2) ->
            let contradiction =
              match r1, r2 with
              | Ast.Const c1, Ast.Const c2 when Ast.equal_term l1 l2 ->
                (* same term against two constants *)
                not (bounds_satisfiable (relset_of o1, c1) (relset_of o2, c2))
              | _ ->
                (* same pair of non-constant terms, possibly swapped *)
                let same = Ast.equal_term l1 l2 && Ast.equal_term r1 r2 in
                let swapped = Ast.equal_term l1 r2 && Ast.equal_term r1 l2 in
                if same then
                  relset_empty (relset_inter (relset_of o1) (relset_of o2))
                else if swapped then
                  relset_empty
                    (relset_inter (relset_of o1)
                       (relset_of (Ast.flip_comparison o2)))
                else false
            in
            if contradiction then
              Some
                (D.errorf D.QF042 sp2
                   "%s contradicts the earlier subgoal %s: together they \
                    can never hold"
                   (pp_cmp (l2, o2, r2)) (pp_cmp (l1, o1, r1)))
            else None)
          rest
      in
      pairs (List.rev_append conflicts acc) rest
  in
  singles @ pairs [] live

(* {1 Pass 6: variable hygiene — singletons and cartesian products} *)

let literal_terms = function
  | Ast.Pos a | Ast.Neg a -> a.Ast.args
  | Ast.Cmp (l, _, r) -> [ l; r ]

let singleton_pass (lr : Ast.located_rule) =
  let r = lr.Ast.lr_rule in
  let counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let bump t =
    match t with
    | Ast.Var v ->
      Hashtbl.replace counts v
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
    | Ast.Param _ | Ast.Const _ -> ()
  in
  List.iter bump r.head.args;
  List.iter (fun lit -> List.iter bump (literal_terms lit)) r.body;
  let singleton v =
    Hashtbl.find_opt counts v = Some 1 && String.length v > 0 && v.[0] <> '_'
  in
  (* Report at the literal that contains the singleton. *)
  List.concat
    (List.map2
       (fun lit span ->
         List.filter_map
           (function
             | Ast.Var v when singleton v ->
               Some
                 (D.infof D.QF050 span
                    "variable %s occurs only once: it joins nothing and \
                     acts as a wildcard (prefix it with _ if deliberate)"
                    v)
             | _ -> None)
           (List.sort_uniq Stdlib.compare (literal_terms lit)))
       r.body lr.Ast.lr_body)

(* Union-find over binding keys; positive subgoals that end up in different
   classes form a cartesian product. *)
let cartesian_pass (lr : Ast.located_rule) =
  let r = lr.Ast.lr_rule in
  let parent : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let rec find k =
    match Hashtbl.find_opt parent k with
    | None ->
      Hashtbl.add parent k k;
      k
    | Some p when String.equal p k -> k
    | Some p ->
      let root = find p in
      Hashtbl.replace parent k root;
      root
  in
  let union a b =
    let ra = find a and rb = find b in
    if not (String.equal ra rb) then Hashtbl.replace parent ra rb
  in
  let keys_of lit =
    List.filter_map
      (function
        | (Ast.Var _ | Ast.Param _) as t -> Some (Ast.binding_key t)
        | Ast.Const _ -> None)
      (literal_terms lit)
  in
  List.iter
    (fun lit ->
      match keys_of lit with
      | [] -> []  |> ignore
      | k :: rest -> List.iter (union k) rest)
    r.body;
  (* Group the positive subgoals by the class of their first key. *)
  let groups : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let diags = ref [] in
  List.iter2
    (fun lit span ->
      match lit with
      | Ast.Pos _ -> (
        match keys_of lit with
        | [] -> ()
        | k :: _ ->
          let root = find k in
          if Hashtbl.length groups > 0 && not (Hashtbl.mem groups root) then
            diags :=
              D.warningf D.QF051 span
                "this subgoal shares no variable or parameter with the \
                 preceding subgoals: the join degenerates to a cartesian \
                 product"
              :: !diags;
          Hashtbl.replace groups root ())
      | Ast.Neg _ | Ast.Cmp _ -> ())
    r.body lr.Ast.lr_body;
  List.rev !diags

(* {1 Pass 7: FILTER sanity} *)

let head_columns_of (r : Ast.rule) =
  (* {!Qf_datalog.Eval.head_columns}, or [None] for a parameter in the
     head (reported separately as QF013). *)
  if List.exists (function Ast.Param _ -> true | _ -> false) r.head.args
  then None
  else Some (Qf_datalog.Eval.head_columns r)

let filter_pass (query : Ast.located_rule list) (filter : Filter.t)
    filter_span =
  let column_issue =
    match filter.Filter.agg with
    | Filter.Count -> []
    | Filter.Sum c | Filter.Min c | Filter.Max c -> (
      match query with
      | [] -> []
      | first :: _ -> (
        match head_columns_of first.Ast.lr_rule with
        | None -> []
        | Some cols ->
          if List.mem c cols then []
          else
            [ D.errorf D.QF060 filter_span
                "the filter aggregates column %s but the head produces \
                 only (%s)"
                c (String.concat "," cols) ]))
  in
  let monotone_issue =
    if Filter.is_monotone filter then []
    else
      [ D.warningf D.QF061 filter_span
          "MIN filters are not monotone: no a-priori filter step is sound, \
           so plans degenerate to direct evaluation" ]
  in
  column_issue @ monotone_issue

(* {1 Pass 8: views} *)

let view_pass (lr : Ast.located_rule) =
  let r = lr.Ast.lr_rule in
  let param_spans =
    List.concat
      ((if Ast.atom_params r.head <> [] then [ lr.Ast.lr_head ] else [])
      :: List.map2
           (fun lit span ->
             if Ast.literal_params lit <> [] then [ span ] else [])
           r.body lr.Ast.lr_body)
  in
  match param_spans with
  | [] -> []
  | span :: _ ->
    [ D.errorf D.QF063 span
        "view %s mentions a parameter; views are evaluated once, before \
         mining, and may not depend on $parameters"
        r.head.pred ]

(* {1 Driver} *)

(* Identical findings (same code, span, and message) can arise twice, e.g.
   [$1 < $1] trips safety condition (3) for both occurrences of [$1]. *)
let dedup diags =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (d : D.t) ->
      let key = (d.D.code, d.D.span, d.D.message) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    diags

let check_program ?catalog (lp : Parse.located_program) =
  let views = lp.Parse.l_views and query = lp.Parse.l_query in
  let per_view lr = safety_rule lr @ view_pass lr @ singleton_pass lr in
  let per_query_rule lr =
    safety_rule lr @ redundancy_pass lr @ arithmetic_pass lr
    @ singleton_pass lr @ cartesian_pass lr
  in
  dedup
    (D.sort
       (List.concat_map per_view views
       @ union_pass query
       @ schema_pass ?catalog ~views ~query ()
       @ List.concat_map per_query_rule query
       @ filter_pass query lp.Parse.l_filter lp.Parse.l_filter_span))

let lint ?catalog text =
  match Parse.program_located text with
  | Error (msg, span) -> [ D.errorf D.QF001 span "%s" msg ]
  | Ok lp -> check_program ?catalog lp
