let binding_keys_of_atom a =
  List.filter_map
    (function
      | (Ast.Var _ | Ast.Param _) as t -> Some (Ast.binding_key t)
      | Ast.Const _ -> None)
    a.Ast.args

let positively_bound (r : Ast.rule) =
  List.concat_map
    (function
      | Ast.Pos a -> binding_keys_of_atom a
      | Ast.Neg _ | Ast.Cmp _ -> [])
    r.body
  |> List.sort_uniq String.compare

let check (r : Ast.rule) =
  let bound = positively_bound r in
  let is_bound key = List.mem key bound in
  let check_terms what terms =
    List.fold_left
      (fun acc t ->
        Result.bind acc (fun () ->
            match t with
            | Ast.Const _ -> Ok ()
            | Ast.Var _ | Ast.Param _ ->
              let key = Ast.binding_key t in
              if is_bound key then Ok ()
              else
                Error
                  (Printf.sprintf
                     "unsafe: %s %s does not appear in a positive subgoal" what
                     key)))
      (Ok ()) terms
  in
  let head_ok =
    (* Parameters cannot appear in the head (they are the flock's output,
       not the query's); plain head variables must be positively bound. *)
    List.fold_left
      (fun acc t ->
        Result.bind acc (fun () ->
            match t with
            | Ast.Param p -> Error (Printf.sprintf "parameter $%s in head" p)
            | Ast.Const _ -> Ok ()
            | Ast.Var _ -> check_terms "head variable" [ t ]))
      (Ok ()) r.head.args
  in
  List.fold_left
    (fun acc lit ->
      Result.bind acc (fun () ->
          match lit with
          | Ast.Pos _ -> Ok ()
          | Ast.Neg a -> check_terms "negated-subgoal variable" a.args
          | Ast.Cmp (l, _, rt) ->
            check_terms "arithmetic-subgoal variable" [ l; rt ]))
    head_ok r.body

let is_safe r = Result.is_ok (check r)

let check_query q =
  List.fold_left (fun acc r -> Result.bind acc (fun () -> check r)) (Ok ()) q
