module Value = Qf_relational.Value

(* A string constant prints bare (Datalog-style lowercase symbol) when it
   lexes back as a plain identifier; otherwise it is double-quoted. *)
let is_bare_ident s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let pp_term ppf = function
  | Ast.Var v -> Format.pp_print_string ppf v
  | Ast.Param p -> Format.fprintf ppf "$%s" p
  | Ast.Const (Value.Str s) when is_bare_ident s -> Format.pp_print_string ppf s
  | Ast.Const v -> Value.pp ppf v

let pp_args ppf args =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
    pp_term ppf args

let pp_atom ppf (a : Ast.atom) =
  Format.fprintf ppf "%s(%a)" a.pred pp_args a.args

let pp_literal ppf = function
  | Ast.Pos a -> pp_atom ppf a
  | Ast.Neg a -> Format.fprintf ppf "NOT %a" pp_atom a
  | Ast.Cmp (l, c, r) ->
    Format.fprintf ppf "%a %s %a" pp_term l (Ast.comparison_to_string c) pp_term
      r

let pp_rule ppf (r : Ast.rule) =
  Format.fprintf ppf "@[<v 4>%a :-@,%a@]" pp_atom r.head
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " AND@,")
       pp_literal)
    r.body

let pp_query ppf q =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,@,")
    pp_rule ppf q

let atom_to_string a = Format.asprintf "%a" pp_atom a
let literal_to_string l = Format.asprintf "%a" pp_literal l
let rule_to_string r = Format.asprintf "@[<v>%a@]" pp_rule r
