(** Abstract syntax for extended conjunctive queries (the paper's flock
    query language, Sec. 2.3): conjunctive queries over stored relations,
    extended with negated subgoals and arithmetic subgoals, with
    distinguished {e parameters} written [$name].  A {!query} is a union of
    such rules (Sec. 3.4). *)

(** {1 Source locations}

    Lines and columns are 1-based; {!no_span} (line 0) marks synthesized
    nodes with no source location. *)

type position = { line : int; col : int }
type span = { start_pos : position; end_pos : position }

val no_pos : position
val no_span : span
val is_no_span : span -> bool

(** Smallest span covering both; {!no_span} is the identity. *)
val join_spans : span -> span -> span

val pp_position : Format.formatter -> position -> unit


type term =
  | Var of string  (** ordinary variable, conventionally capitalized *)
  | Param of string  (** flock parameter [$name] (name stored without [$]) *)
  | Const of Qf_relational.Value.t

type atom = { pred : string; args : term list }

type comparison =
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne

type literal =
  | Pos of atom  (** positive relational subgoal *)
  | Neg of atom  (** negated relational subgoal, [NOT p(...)] *)
  | Cmp of term * comparison * term  (** arithmetic subgoal, e.g. [$1 < $2] *)

type rule = { head : atom; body : literal list }

(** A union of rules.  All rules of a well-formed query share the same head
    predicate and arity and mention the same set of parameters (checked by
    {!wf_query}). *)
type query = rule list

(** {1 Located rules}

    The parser's span-carrying product: the rule plus the source span of
    its head and of each body literal (same order as [body]).  Synthesized
    rules get {!no_span} everywhere via {!locate}. *)

type located_rule = {
  lr_rule : rule;
  lr_head : span;
  lr_body : span list;
  lr_span : span;
}

val locate : rule -> located_rule

(** {1 Equality} *)

val equal_term : term -> term -> bool
val equal_atom : atom -> atom -> bool
val equal_literal : literal -> literal -> bool
val equal_rule : rule -> rule -> bool

(** {1 Structure accessors} *)

(** Variable names (not parameters) in a term/atom/literal, left to right. *)
val term_vars : term -> string list

val atom_vars : atom -> string list
val literal_vars : literal -> string list

(** Parameter names (without [$]) likewise. *)
val term_params : term -> string list

val atom_params : atom -> string list
val literal_params : literal -> string list


(** Distinct parameter names of a rule, in sorted order.  Sorted so that
    every component agrees on the column order of parameter tuples. *)
val rule_params : rule -> string list

(** Distinct parameter names of a query (sorted). *)
val query_params : query -> string list

val positive_atoms : rule -> atom list

(** [comparison_eval c cmp] interprets [cmp] on the result [c] of
    {!Qf_relational.Value.compare}. *)
val comparison_eval : int -> comparison -> bool

val comparison_to_string : comparison -> string

(** Flip a comparison's operands: [a op b] iff [b (flip op) a]. *)
val flip_comparison : comparison -> comparison

(** {1 Substitution} *)

(** [subst_term bindings t] replaces bound [Var]/[Param] terms by constants.
    Bindings are keyed as produced by {!binding_key}. *)
val subst_term : (string * Qf_relational.Value.t) list -> term -> term

val subst_rule : (string * Qf_relational.Value.t) list -> rule -> rule

(** [rename_params mapping r] renames parameters according to
    [(old, new)] pairs, simultaneously (no chaining).  Parameters not in
    the mapping are untouched. *)
val rename_params : (string * string) list -> rule -> rule

(** The environment key for a term: variables by name, parameters prefixed
    with [$].  Raises [Invalid_argument] on a constant. *)
val binding_key : term -> string

(** {1 Well-formedness} *)

(** Checks: non-empty union; equal head predicates and arities; equal
    parameter sets across rules; no parameter in any head; no empty body. *)
val wf_query : query -> (unit, string) result
