module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
module Schema = Qf_relational.Schema

type program = Ast.rule list

let ( let* ) = Result.bind
let error fmt = Format.kasprintf (fun s -> Error s) fmt

let head_preds rules =
  List.sort_uniq String.compare
    (List.map (fun (r : Ast.rule) -> r.head.pred) rules)

(* Dependency edges among head predicates: [h] depends on [q] when [q]
   appears in the body of a rule for [h]; the edge is negative when the
   occurrence is negated. *)
let edges rules heads =
  List.concat_map
    (fun (r : Ast.rule) ->
      List.filter_map
        (function
          | Ast.Pos a when List.mem a.Ast.pred heads ->
            Some (r.head.pred, a.Ast.pred, false)
          | Ast.Neg a when List.mem a.Ast.pred heads ->
            Some (r.head.pred, a.Ast.pred, true)
          | _ -> None)
        r.body)
    rules

(* Tarjan's strongly connected components; returns SCCs in reverse
   topological order (dependencies last), which we reverse. *)
let sccs nodes deps =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (deps v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if String.equal w v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  (* Tarjan emits an SCC only after everything it depends on; [components]
     is built by prepending, so it is already dependency-first order. *)
  List.rev !components

let strata rules =
  let heads = head_preds rules in
  let edge_list = edges rules heads in
  let deps v =
    List.filter_map
      (fun (h, q, _) -> if String.equal h v then Some q else None)
      edge_list
    |> List.sort_uniq String.compare
  in
  let components = sccs heads deps in
  (* Stratification: no negative edge inside one component. *)
  let* () =
    List.fold_left
      (fun acc c ->
        let* () = acc in
        let bad =
          List.exists
            (fun (h, q, negative) -> negative && List.mem h c && List.mem q c)
            edge_list
        in
        if bad then
          error "program is not stratified: negation through the cycle {%s}"
            (String.concat ", " c)
        else Ok ())
      (Ok ()) components
  in
  Ok components

let check catalog rules =
  let* () = if rules = [] then Error "empty program" else Ok () in
  (* Arity agreement per head. *)
  let arities = Hashtbl.create 8 in
  let* () =
    List.fold_left
      (fun acc (r : Ast.rule) ->
        let* () = acc in
        let head = r.head.pred in
        let arity = List.length r.head.args in
        match Hashtbl.find_opt arities head with
        | Some a when a <> arity ->
          error "%s: head arity differs between rules (%d vs %d)" head a arity
        | _ ->
          Hashtbl.replace arities head arity;
          Ok ())
      (Ok ()) rules
  in
  let* () =
    List.fold_left
      (fun acc (r : Ast.rule) ->
        let* () = acc in
        let head = r.head.pred in
        let* () =
          match Safety.check r with
          | Ok () -> Ok ()
          | Error e -> error "%s: %s" head e
        in
        let* () =
          if Ast.rule_params r = [] then Ok ()
          else error "%s: intermediate predicates may not mention parameters" head
        in
        let* () =
          if Catalog.mem catalog head then
            error "%s shadows a stored relation" head
          else Ok ()
        in
        (* Body predicates must be stored or defined by the program, with
           the arity they have there. *)
        List.fold_left
          (fun acc lit ->
            let* () = acc in
            match lit with
            | Ast.Pos a | Ast.Neg a -> (
              let used = List.length a.Ast.args in
              let arity =
                match Catalog.find_opt catalog a.Ast.pred with
                | Some rel -> Some (Relation.arity rel)
                | None -> Hashtbl.find_opt arities a.Ast.pred
              in
              match arity with
              | None -> error "%s: unknown predicate %s in body" head a.Ast.pred
              | Some n when n <> used ->
                error "%s: predicate %s has arity %d but is used with %d" head
                  a.Ast.pred n used
              | Some _ -> Ok ())
            | Ast.Cmp _ -> Ok ())
          (Ok ()) r.body)
      (Ok ()) rules
  in
  Result.map (fun _ -> ()) (strata rules)

let delta_name pred = pred ^ "~delta"

(* Rewrite one in-stratum positive occurrence (the [target]-th, counting
   in-stratum positive atoms left to right) to read the delta relation. *)
let differentiate stratum (r : Ast.rule) target =
  let seen = ref (-1) in
  let body =
    List.map
      (fun lit ->
        match lit with
        | Ast.Pos a when List.mem a.Ast.pred stratum ->
          incr seen;
          if !seen = target then
            Ast.Pos { a with Ast.pred = delta_name a.Ast.pred }
          else lit
        | _ -> lit)
      r.body
  in
  { r with body }

let in_stratum_occurrences stratum (r : Ast.rule) =
  List.length
    (List.filter
       (function
         | Ast.Pos a -> List.mem a.Ast.pred stratum
         | Ast.Neg _ | Ast.Cmp _ -> false)
       r.body)

(* Invariant per round: [pred] (the total) holds everything discovered so
   far; [pred~delta] holds exactly the previous round's new tuples.  Each
   round accumulates its discoveries in fresh local relations, so nothing
   read during the round mutates under it. *)
let evaluate_stratum work rules stratum =
  let stratum_rules =
    List.filter (fun (r : Ast.rule) -> List.mem r.head.pred stratum) rules
  in
  let schema_of =
    List.map
      (fun pred ->
        let rule =
          List.find
            (fun (r : Ast.rule) -> String.equal r.head.pred pred)
            stratum_rules
        in
        pred, Schema.of_list (Eval.head_columns rule))
      stratum
  in
  List.iter
    (fun (pred, schema) ->
      Catalog.add work pred (Relation.create schema);
      Catalog.add work (delta_name pred) (Relation.create schema))
    schema_of;
  let fresh_accumulators () =
    List.map (fun (pred, schema) -> pred, Relation.create schema) schema_of
  in
  let collect acc pred rel =
    Relation.add_all ~unless:(Catalog.find work pred) (List.assoc pred acc) rel;
    acc
  in
  (* Commit a round: totals += new, deltas := new.  Re-register both so any
     cached statistics are invalidated. *)
  let commit acc =
    List.iter
      (fun (pred, fresh) ->
        let total = Catalog.find work pred in
        Relation.add_all total fresh;
        Catalog.add work pred total;
        Catalog.add work (delta_name pred) fresh)
      acc;
    List.exists (fun (_, fresh) -> not (Relation.is_empty fresh)) acc
  in
  (* Round 0: full rules against empty totals — base cases only. *)
  let acc0 =
    List.fold_left
      (fun acc (r : Ast.rule) -> collect acc r.head.pred (Eval.tabulate work r))
      (fresh_accumulators ()) stratum_rules
  in
  let changed = ref (commit acc0) in
  while !changed do
    let acc =
      List.fold_left
        (fun acc (r : Ast.rule) ->
          let n = in_stratum_occurrences stratum r in
          let rec variants k acc =
            if k >= n then acc
            else
              let rule = differentiate stratum r k in
              variants (k + 1) (collect acc r.head.pred (Eval.tabulate work rule))
          in
          variants 0 acc)
        (fresh_accumulators ()) stratum_rules
    in
    changed := commit acc
  done;
  List.iter (fun (pred, _) -> Catalog.remove work (delta_name pred)) schema_of

let materialize catalog rules =
  let* () = check catalog rules in
  let* stratification = strata rules in
  let work = Catalog.copy catalog in
  List.iter (fun stratum -> evaluate_stratum work rules stratum) stratification;
  Ok work
