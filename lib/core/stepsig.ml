module Ast = Qf_datalog.Ast
module Eval = Qf_datalog.Eval
module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
module Value = Qf_relational.Value

exception Unresolvable

let of_step ~work ~filter (s : Plan.step) =
  try
    let param_rank p =
      match List.find_index (String.equal p) s.params with
      | Some i -> i
      | None -> raise Unresolvable
    in
    (* Predicates rename to their first-occurrence rank; the relations
       they resolve to are recorded as (id, version) pairs in the same
       order, so the rank doubles as an index into the dependency list. *)
    let pred_ranks : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let deps = ref [] in
    let pred_rank pred =
      match Hashtbl.find_opt pred_ranks pred with
      | Some i -> i
      | None -> (
        match Catalog.find_opt work pred with
        | None -> raise Unresolvable
        | Some rel ->
          let i = Hashtbl.length pred_ranks in
          Hashtbl.replace pred_ranks pred i;
          deps := (Relation.id rel, Relation.version rel) :: !deps;
          i)
    in
    let buf = Buffer.create 256 in
    let render_rule (r : Ast.rule) =
      let var_ranks : (string, int) Hashtbl.t = Hashtbl.create 8 in
      let var_rank v =
        match Hashtbl.find_opt var_ranks v with
        | Some i -> i
        | None ->
          let i = Hashtbl.length var_ranks in
          Hashtbl.replace var_ranks v i;
          i
      in
      let term = function
        | Ast.Var v -> Printf.sprintf "v%d" (var_rank v)
        | Ast.Param p -> Printf.sprintf "p%d" (param_rank p)
        | Ast.Const (Value.Int i) -> Printf.sprintf "i:%d" i
        | Ast.Const (Value.Real f) -> Printf.sprintf "r:%h" f
        | Ast.Const (Value.Str s) -> Printf.sprintf "s:%S" s
      in
      let atom (a : Ast.atom) =
        Printf.sprintf "r%d(%s)" (pred_rank a.pred)
          (String.concat "," (List.map term a.args))
      in
      let literal = function
        | Ast.Pos a -> atom a
        | Ast.Neg a -> "!" ^ atom a
        | Ast.Cmp (l, c, r) ->
          Printf.sprintf "%s%s%s" (term l) (Ast.comparison_to_string c)
            (term r)
      in
      (* The head predicate is the step's own (fresh) name, never a
         stored relation — only its argument pattern is semantic. *)
      Buffer.add_string buf "H(";
      Buffer.add_string buf (String.concat "," (List.map term r.head.args));
      Buffer.add_string buf ")<-";
      Buffer.add_string buf (String.concat "," (List.map literal r.body))
    in
    (match s.query with [] -> raise Unresolvable | _ -> ());
    List.iteri
      (fun i r ->
        if i > 0 then Buffer.add_char buf ';';
        render_rule r)
      s.query;
    let head_columns =
      match Eval.head_columns (List.hd s.query) with
      | cols -> cols
      | exception Eval.Error _ -> raise Unresolvable
    in
    let fsig =
      match Filter.signature filter ~head_columns with
      | Some f -> f
      | None -> raise Unresolvable
    in
    let deps_str =
      String.concat ","
        (List.rev_map (fun (id, v) -> Printf.sprintf "%d.%d" id v) !deps)
    in
    Some (Printf.sprintf "%s|%s|[%s]" (Buffer.contents buf) fsig deps_str)
  with Unresolvable -> None
