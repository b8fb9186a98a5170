(** Printing queries back in the paper's surface syntax, e.g.

    {v
    answer(B) :-
        baskets(B,$1) AND
        baskets(B,$2) AND
        $1 < $2
    v}

    The output of {!rule_to_string} re-parses to an equal rule (round-trip
    property, tested). *)

val pp_term : Format.formatter -> Ast.term -> unit
val pp_atom : Format.formatter -> Ast.atom -> unit
val pp_literal : Format.formatter -> Ast.literal -> unit
val pp_rule : Format.formatter -> Ast.rule -> unit

(** Union: rules separated by blank lines. *)
val pp_query : Format.formatter -> Ast.query -> unit

val atom_to_string : Ast.atom -> string
val literal_to_string : Ast.literal -> string
val rule_to_string : Ast.rule -> string
