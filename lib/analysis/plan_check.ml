(* Independent re-implementation of the paper's Rule for Generating Query
   Plans (Sec. 4.2).  [Qf_core.Plan.make] performs the same checks while
   constructing a plan; this module re-derives the rule from the paper text
   with a different structure (explicit multiset accounting, worklist over
   earlier steps, fuel-bounded recursion) so the two act as cross-checks:
   installing [verify] as the plan auditor makes every plan built anywhere
   in the system pass both. *)

module Ast = Qf_datalog.Ast
module Plan = Qf_core.Plan
module Flock = Qf_core.Flock
module Filter = Qf_core.Filter

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

(* Remove one occurrence of [lit] (up to {!Ast.equal_literal}). *)
let remove_one lit lst =
  let rec go acc = function
    | [] -> None
    | x :: rest ->
      if Ast.equal_literal x lit then Some (List.rev_append acc rest)
      else go (x :: acc) rest
  in
  go [] lst

let distinct_strings l = List.length (List.sort_uniq String.compare l) = List.length l

(* Classify one step-rule body against the matching flock-rule body:
   every literal must be an original subgoal (consumed with multiplicity)
   or a legal ok-subgoal over [earlier].  Returns how many originals were
   retained.  [fuel] bounds the renaming recursion. *)
let rec classify ~fuel ~flock ~earlier ~orig_body body =
  let* () = if fuel <= 0 then Error "renaming recursion too deep" else Ok () in
  let rec loop remaining kept = function
    | [] -> Ok kept
    | lit :: rest -> (
      match remove_one lit remaining with
      | Some remaining' -> loop remaining' (kept + 1) rest
      | None ->
        let* () = legal_ok_subgoal ~fuel ~flock ~earlier lit in
        loop remaining kept rest)
  in
  loop orig_body 0 body

and legal_ok_subgoal ~fuel ~flock ~earlier lit =
  match lit with
  | Ast.Neg _ | Ast.Cmp _ ->
    fail "subgoal %s is neither an original subgoal nor an ok-subgoal"
      (Qf_datalog.Pretty.literal_to_string lit)
  | Ast.Pos a -> (
    match
      List.find_opt
        (fun (s : Plan.step) -> String.equal s.name a.Ast.pred)
        earlier
    with
    | None ->
      fail
        "subgoal %s is not an original subgoal and %s names no earlier \
         FILTER step"
        (Qf_datalog.Pretty.atom_to_string a)
        a.Ast.pred
    | Some s ->
      let params =
        List.filter_map
          (function Ast.Param p -> Some p | Ast.Var _ | Ast.Const _ -> None)
          a.Ast.args
      in
      let* () =
        if
          List.length params = List.length a.Ast.args
          && List.length params = List.length s.params
          && distinct_strings params
        then Ok ()
        else
          fail "ok-subgoal %s must carry the %d distinct parameters of step %s"
            (Qf_datalog.Pretty.atom_to_string a)
            (List.length s.params) s.name
      in
      if List.for_all2 String.equal params s.params then Ok ()
      else begin
        (* Renamed ok-subgoal: the step's query under the renaming must be
           derivable from the flock (parameter symmetry, footnote 3). *)
        let mapping = List.combine s.params params in
        let flock_rules = flock.Flock.query in
        let renamed = List.map (Ast.rename_params mapping) s.query in
        let* () =
          if List.length renamed = List.length flock_rules then Ok ()
          else fail "step %s: rule count differs from the flock" s.name
        in
        List.fold_left2
          (fun acc (orig : Ast.rule) (rr : Ast.rule) ->
            let* () = acc in
            let* _kept =
              classify ~fuel:(fuel - 1) ~flock ~earlier ~orig_body:orig.body
                rr.body
            in
            Ok ())
          (Ok ()) flock_rules renamed
      end)

let check_step ~flock ~earlier ~is_final (s : Plan.step) =
  let flock_rules = flock.Flock.query in
  let* () =
    if
      List.exists
        (fun (e : Plan.step) -> String.equal e.name s.name)
        earlier
    then fail "two FILTER steps are both named %s" s.name
    else Ok ()
  in
  let base_preds =
    List.concat_map
      (fun (r : Ast.rule) ->
        List.filter_map
          (function
            | Ast.Pos a | Ast.Neg a -> Some a.Ast.pred
            | Ast.Cmp _ -> None)
          r.body)
      flock_rules
  in
  let* () =
    if List.mem s.name base_preds then
      fail "step %s shadows a base relation of the flock" s.name
    else Ok ()
  in
  let* () =
    if List.length s.query = List.length flock_rules then Ok ()
    else
      fail "step %s has %d rules but the flock's union has %d" s.name
        (List.length s.query) (List.length flock_rules)
  in
  let* () =
    if s.params = Ast.query_params s.query then Ok ()
    else fail "step %s: declared parameters disagree with its query" s.name
  in
  let check_rule i (orig : Ast.rule) (sr : Ast.rule) =
    let* () =
      if Ast.equal_atom orig.head sr.head then Ok ()
      else fail "step %s, rule %d: head differs from the flock's" s.name i
    in
    let* kept =
      classify ~fuel:32 ~flock ~earlier ~orig_body:orig.body sr.body
    in
    let* () =
      match Lint.rule_is_qf_safe sr with
      | Ok () -> Ok ()
      | Error e -> fail "step %s, rule %d is unsafe: %s" s.name i e
    in
    let* () =
      if kept >= 1 then Ok ()
      else
        fail
          "step %s, rule %d retains no original subgoal: it is not an \
           upper bound"
          s.name i
    in
    if is_final && kept <> List.length orig.body then
      fail "the final step deletes original subgoals (rule %d)" i
    else Ok ()
  in
  let rec per_rule i = function
    | [], [] -> Ok ()
    | orig :: origs, sr :: srs ->
      let* () = check_rule i orig sr in
      per_rule (i + 1) (origs, srs)
    | _ -> fail "step %s: rule count mismatch" s.name
  in
  per_rule 0 (flock_rules, s.query)

let verify (p : Plan.t) =
  let flock = p.Plan.flock in
  let* () =
    if p.Plan.steps <> [] && not (Filter.is_monotone flock.Flock.filter) then
      Error
        "the plan has a-priori FILTER steps but the flock's filter is not \
         monotone: no upper-bound argument exists (Sec. 4.1)"
    else Ok ()
  in
  let rec walk earlier = function
    | [] -> check_step ~flock ~earlier ~is_final:true p.Plan.final
    | s :: rest ->
      let* () = check_step ~flock ~earlier ~is_final:false s in
      walk (s :: earlier) rest
  in
  walk [] p.Plan.steps
