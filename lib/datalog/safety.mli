(** Safety of extended conjunctive queries (paper Sec. 3.2–3.3).

    A rule is {e safe} when
    + every variable in the head appears in a positive, non-arithmetic
      subgoal of the body;
    + every variable in a negated subgoal appears in a positive,
      non-arithmetic subgoal;
    + every variable in an arithmetic subgoal appears in a positive,
      non-arithmetic subgoal.

    Parameters count as variables for conditions (2) and (3); they may not
    appear in the head at all.  Safe queries define finite answers and are
    exactly the candidates usable as a-priori filter subqueries. *)

(** [check rule] is [Ok ()] or [Error reason]. *)
val check : Ast.rule -> (unit, string) result

val is_safe : Ast.rule -> bool

(** A union is safe when every rule is (Sec. 3.4). *)
val check_query : Ast.query -> (unit, string) result

(** Names (binding keys, see {!Ast.binding_key}) of variables and parameters
    bound by positive subgoals of the body. *)
val positively_bound : Ast.rule -> string list
