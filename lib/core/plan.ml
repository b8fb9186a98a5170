module Ast = Qf_datalog.Ast
module Safety = Qf_datalog.Safety

type step = {
  name : string;
  params : string list;
  query : Ast.query;
}

type t = {
  flock : Flock.t;
  steps : step list;
  final : step;
}

let step ~name query = { name; params = Ast.query_params query; query }

let ( let* ) = Result.bind

let error fmt = Format.kasprintf (fun s -> Error s) fmt

(* An ok-subgoal referencing an earlier step is, in the paper's rule, a
   literal copy of that step's head: predicate = step name, arguments = its
   parameters as parameter terms.  We additionally accept a head whose
   arguments are a {e renaming} of the step's parameters, provided the
   step's query under that renaming is itself derivable from the flock —
   the parameter-symmetry extension the paper's footnote 3 appeals to for
   levelwise a-priori.  Derivability of the renamed query is checked
   recursively with the same classification used for step bodies. *)
let rec ok_subgoal_check flock earlier (lit : Ast.literal) =
  match lit with
  | Ast.Neg _ | Ast.Cmp _ -> Error "not an ok-subgoal"
  | Ast.Pos a -> (
    match List.find_opt (fun s -> String.equal s.name a.pred) earlier with
    | None -> error "%s is not an earlier step" a.pred
    | Some s ->
      let args_params =
        List.filter_map
          (function Ast.Param p -> Some p | Ast.Var _ | Ast.Const _ -> None)
          a.args
      in
      if
        List.length a.args <> List.length s.params
        || List.length args_params <> List.length a.args
        || List.length (List.sort_uniq String.compare args_params)
           <> List.length args_params
      then
        error "ok-subgoal %s must carry %d distinct parameters" a.pred
          (List.length s.params)
      else if List.for_all2 String.equal args_params s.params then Ok ()
      else begin
        (* Renamed: the renamed subquery must be derivable from the flock. *)
        let mapping = List.combine s.params args_params in
        let renamed = List.map (Ast.rename_params mapping) s.query in
        let rec per_rule i = function
          | [], [] -> Ok ()
          | (orig : Ast.rule) :: origs, (rr : Ast.rule) :: rrs ->
            let* _kept =
              classify_body flock earlier orig.body rr.body
            in
            let* () = per_rule (i + 1) (origs, rrs) in
            Ok ()
          | _ -> error "ok-subgoal %s: rule count mismatch" a.pred
        in
        per_rule 0 (flock.Flock.query, renamed)
      end)

(* Split a step rule's body into retained original literals and ok-subgoals;
   fail on anything else.  Duplicated literals are matched with
   multiplicity. *)
and classify_body flock earlier (original : Ast.literal list) body =
  let remaining = ref original in
  let take lit =
    let rec go acc = function
      | [] -> None
      | l :: rest ->
        if Ast.equal_literal l lit then Some (List.rev_append acc rest)
        else go (l :: acc) rest
    in
    match go [] !remaining with
    | Some rest ->
      remaining := rest;
      true
    | None -> false
  in
  let rec loop kept = function
    | [] -> Ok (List.rev kept)
    | lit :: rest ->
      if take lit then loop (lit :: kept) rest
      else begin
        match ok_subgoal_check flock earlier lit with
        | Ok () -> loop kept rest
        | Error _ ->
          error "subgoal %s is neither an original subgoal nor an ok-subgoal"
            (Qf_datalog.Pretty.literal_to_string lit)
      end
  in
  loop [] body

let check_step (flock : Flock.t) earlier (s : step) ~is_final =
  let* () =
    if List.exists (fun e -> String.equal e.name s.name) earlier then
      error "duplicate step name %s" s.name
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
      flock.query
  in
  let* () =
    if List.mem s.name base_preds then
      error "step name %s shadows a base relation" s.name
    else Ok ()
  in
  let* () =
    if List.length s.query = List.length flock.query then Ok ()
    else
      error "step %s: %d rules but the flock has %d (one subquery per rule)"
        s.name (List.length s.query) (List.length flock.query)
  in
  let* () =
    if s.params = Ast.query_params s.query then Ok ()
    else error "step %s: declared parameters disagree with its query" s.name
  in
  let check_rule i (orig : Ast.rule) (sr : Ast.rule) =
    let* () =
      if Ast.equal_atom orig.head sr.head then Ok ()
      else error "step %s, rule %d: head differs from the flock's" s.name i
    in
    let* kept = classify_body flock earlier orig.body sr.body in
    let* () =
      match Safety.check sr with
      | Ok () -> Ok ()
      | Error e -> error "step %s, rule %d: %s" s.name i e
    in
    let* () =
      if kept = [] then
        error "step %s, rule %d: retains no original subgoal" s.name i
      else Ok ()
    in
    if is_final && List.length kept <> List.length orig.body then
      error "final step deletes original subgoals (rule %d)" i
    else Ok ()
  in
  let rec check_all i = function
    | [], [] -> Ok ()
    | orig :: origs, sr :: srs ->
      let* () = check_rule i orig sr in
      check_all (i + 1) (origs, srs)
    | _ -> error "step %s: rule count mismatch" s.name
  in
  check_all 0 (flock.query, s.query)

(* Externally installed second opinions on every plan this module admits.
   [qf_analysis] installs two: the independent Sec. 4.2 legality verifier
   ([Plan_check.verify]) and the containment-based translation validator
   ([Validate.verify]).  Both run on every plan the optimizer or the
   levelwise generator produces, so plan generation is re-checked by code
   that shares nothing with the classification logic above — a sanitizer
   for plan generation.  Auditors are named so each can be installed,
   replaced, or removed independently. *)
let auditors : (string * (t -> (unit, string) result)) list ref = ref []

let add_auditor ~name f =
  auditors :=
    List.filter (fun (n, _) -> not (String.equal n name)) !auditors
    @ [ name, f ]

let remove_auditor ~name =
  auditors := List.filter (fun (n, _) -> not (String.equal n name)) !auditors

let make flock ~steps ~final =
  let* () =
    (* A plan with no auxiliary steps never prunes, so it is sound for any
       filter; pruning steps need monotonicity for the upper-bound
       argument. *)
    if steps = [] || Filter.is_monotone flock.Flock.filter then Ok ()
    else
      Error
        "plans require a monotone filter (a-priori filter steps are unsound \
         otherwise)"
  in
  let rec check earlier = function
    | [] -> check_step flock earlier final ~is_final:true
    | s :: rest ->
      let* () = check_step flock earlier s ~is_final:false in
      check (s :: earlier) rest
  in
  let* () = check [] steps in
  let t = { flock; steps; final } in
  let rec audit = function
    | [] -> Ok t
    | (name, f) :: rest -> (
      match f t with
      | Ok () -> audit rest
      | Error e -> error "plan auditor %s rejected the plan: %s" name e)
  in
  audit !auditors

let make_exn flock ~steps ~final =
  match make flock ~steps ~final with
  | Ok t -> t
  | Error msg -> invalid_arg ("Plan.make: " ^ msg)

let trivial flock =
  make_exn flock ~steps:[]
    ~final:(step ~name:"result" flock.Flock.query)

let all_steps t = t.steps @ [ t.final ]
let filter_step_count t = List.length t.steps
