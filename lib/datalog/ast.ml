module Value = Qf_relational.Value

type position = { line : int; col : int }
type span = { start_pos : position; end_pos : position }

let no_pos = { line = 0; col = 0 }
let no_span = { start_pos = no_pos; end_pos = no_pos }
let is_no_span s = s.start_pos.line = 0

let join_spans a b =
  if is_no_span a then b
  else if is_no_span b then a
  else
    let le p q = p.line < q.line || (p.line = q.line && p.col <= q.col) in
    { start_pos = (if le a.start_pos b.start_pos then a.start_pos else b.start_pos);
      end_pos = (if le a.end_pos b.end_pos then b.end_pos else a.end_pos) }

let pp_position ppf p = Format.fprintf ppf "%d:%d" p.line p.col

type term =
  | Var of string
  | Param of string
  | Const of Value.t

type atom = { pred : string; args : term list }

type comparison =
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne

type literal =
  | Pos of atom
  | Neg of atom
  | Cmp of term * comparison * term

type rule = { head : atom; body : literal list }
type query = rule list

(** A rule together with the source spans of its head and each body
    literal, as recorded by the parser.  Programmatically built rules use
    {!locate}, which attaches {!no_span} everywhere. *)
type located_rule = {
  lr_rule : rule;
  lr_head : span;
  lr_body : span list;
  lr_span : span;
}

let locate r =
  { lr_rule = r;
    lr_head = no_span;
    lr_body = List.map (fun _ -> no_span) r.body;
    lr_span = no_span }

let equal_term a b =
  match a, b with
  | Var x, Var y | Param x, Param y -> String.equal x y
  | Const x, Const y -> Value.equal x y
  | (Var _ | Param _ | Const _), _ -> false

let equal_atom a b =
  String.equal a.pred b.pred
  && List.length a.args = List.length b.args
  && List.for_all2 equal_term a.args b.args

let equal_literal a b =
  match a, b with
  | Pos x, Pos y | Neg x, Neg y -> equal_atom x y
  | Cmp (l1, c1, r1), Cmp (l2, c2, r2) ->
    c1 = c2 && equal_term l1 l2 && equal_term r1 r2
  | (Pos _ | Neg _ | Cmp _), _ -> false

let equal_rule a b =
  equal_atom a.head b.head
  && List.length a.body = List.length b.body
  && List.for_all2 equal_literal a.body b.body

let term_vars = function Var v -> [ v ] | Param _ | Const _ -> []
let atom_vars a = List.concat_map term_vars a.args

let literal_vars = function
  | Pos a | Neg a -> atom_vars a
  | Cmp (l, _, r) -> term_vars l @ term_vars r

let term_params = function Param p -> [ p ] | Var _ | Const _ -> []
let atom_params a = List.concat_map term_params a.args

let literal_params = function
  | Pos a | Neg a -> atom_params a
  | Cmp (l, _, r) -> term_params l @ term_params r

let rule_params r =
  List.sort_uniq String.compare
    (atom_params r.head @ List.concat_map literal_params r.body)

let query_params q =
  List.sort_uniq String.compare (List.concat_map rule_params q)

let positive_atoms r =
  List.filter_map (function Pos a -> Some a | Neg _ | Cmp _ -> None) r.body

let comparison_eval c = function
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | Eq -> c = 0
  | Ne -> c <> 0

let comparison_to_string = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "="
  | Ne -> "!="

let flip_comparison = function
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | Eq -> Eq
  | Ne -> Ne

let binding_key = function
  | Var v -> v
  | Param p -> "$" ^ p
  | Const _ -> invalid_arg "Ast.binding_key: constant term"

let subst_term bindings t =
  match t with
  | Const _ -> t
  | Var _ | Param _ -> (
    match List.assoc_opt (binding_key t) bindings with
    | Some v -> Const v
    | None -> t)

let subst_atom bindings a = { a with args = List.map (subst_term bindings) a.args }

let subst_literal bindings = function
  | Pos a -> Pos (subst_atom bindings a)
  | Neg a -> Neg (subst_atom bindings a)
  | Cmp (l, c, r) -> Cmp (subst_term bindings l, c, subst_term bindings r)

let subst_rule bindings r =
  { head = subst_atom bindings r.head;
    body = List.map (subst_literal bindings) r.body }

let rename_params mapping r =
  let term = function
    | Param p as t -> (
      match List.assoc_opt p mapping with Some p' -> Param p' | None -> t)
    | (Var _ | Const _) as t -> t
  in
  let atom a = { a with args = List.map term a.args } in
  let literal = function
    | Pos a -> Pos (atom a)
    | Neg a -> Neg (atom a)
    | Cmp (l, c, rt) -> Cmp (term l, c, term rt)
  in
  { r with body = List.map literal r.body }

let wf_query q =
  let ( let* ) r f = Result.bind r f in
  let* () = if q = [] then Error "empty union" else Ok () in
  let first = List.hd q in
  let check_rule i r =
    let* () =
      if String.equal r.head.pred first.head.pred then Ok ()
      else Error (Printf.sprintf "rule %d: head predicate differs" i)
    in
    let* () =
      if List.length r.head.args = List.length first.head.args then Ok ()
      else Error (Printf.sprintf "rule %d: head arity differs" i)
    in
    let* () =
      if atom_params r.head = [] then Ok ()
      else Error (Printf.sprintf "rule %d: parameter in head" i)
    in
    let* () =
      if r.body <> [] then Ok ()
      else Error (Printf.sprintf "rule %d: empty body" i)
    in
    if rule_params r = rule_params first then Ok ()
    else Error (Printf.sprintf "rule %d: parameter set differs across union" i)
  in
  List.fold_left
    (fun acc (i, r) ->
      let* () = acc in
      check_rule i r)
    (Ok ())
    (List.mapi (fun i r -> i, r) q)
