(** Evaluation of extended conjunctive queries against a catalog.

    Evaluation is a binding-passing (sideways-information-passing) join: an
    {e environment} binds variables and parameters (keyed as in
    {!Ast.binding_key}) to values; a positive subgoal extends each
    environment with the matching tuples of its stored relation, found
    through a hash index on the already-bound argument positions; negated
    and arithmetic subgoals filter environments once their terms are bound.

    The incremental {!Envs} interface is exposed because the dynamic
    query-flock executor (paper Sec. 4.4) walks a body one literal at a
    time, deciding after each one whether to interpose a FILTER step: it
    counts the environments so far into a {!groups} table — the one a
    plan step's {!filter_query} fills — and {!Envs.semijoin}s them with
    the survivors. *)

exception Error of string

(** {1 Environment sets} *)

module Envs : sig
  (** A set of environments sharing one bound-key set. *)
  type t

  (** The single empty environment (neutral element for joins). *)
  val start : unit -> t

  (** Keys currently bound, in binding order. *)
  val bound_keys : t -> string list

  (** Number of environments. *)
  val count : t -> int

  (** [extend_pos catalog envs atom] joins with the stored relation for
      [atom].  Raises {!Error} on an unknown predicate or arity mismatch.

      [sip] maps binding keys (as in {!Ast.binding_key}, e.g. ["$p"]) to
      sideways-information-passing reducers: when the atom {e binds} such
      a key for the first time, candidate matches whose fresh value fails
      the reducer are dropped before the extended row is emitted.  Sound
      only when the reducer over-approximates the values the rest of the
      rule accepts for that key (reducers have no false negatives, so the
      final result set is unchanged — only intermediate rows shrink).
      Rejections are flushed as one [sip.rows_pruned] Obs count.

      [filters] are negated and arithmetic literals whose terms are all
      bound once [atom] is (default none).  The result is the extension
      with each filter applied in turn, as {!filter_neg} and {!filter_cmp}
      would, but they are evaluated on each candidate inside the probe
      loop — after the key match, the repeated-variable checks and the
      [sip] reducers — so rows they reject are never materialized.  [order_body]'s output gives them: the literals it
      flushes directly after a positive subgoal.  Raises
      [Invalid_argument] on a positive literal among them.

      When tracing is on, each call records an [eval.extend] span with
      attributes [pred], [rows_in], [candidates] (key-matched tuples),
      [rows_out] and [filtered] (candidates dropped by [filters]). *)
  val extend_pos :
    ?sip:(string * Qf_relational.Sip.t) list ->
    ?filters:Ast.literal list ->
    Qf_relational.Catalog.t ->
    t ->
    Ast.atom ->
    t

  (** [filter_neg catalog envs atom] keeps environments for which the
      instantiated atom is {e not} in its relation.  All argument terms must
      be bound (guaranteed if the rule is safe and positives ran first). *)
  val filter_neg : Qf_relational.Catalog.t -> t -> Ast.atom -> t

  (** Keep environments satisfying the arithmetic comparison. *)
  val filter_cmp : t -> Ast.term -> Ast.comparison -> Ast.term -> t

  (** [semijoin envs ~keys ~keep] keeps environments whose [keys]-projection
      is a tuple of [keep] — the pruning step of dynamic evaluation. *)
  val semijoin : t -> keys:string list -> keep:Qf_relational.Relation.t -> t
end

(** {1 Literal ordering} *)

(** The join order: the one greedy subgoal-ordering algorithm, shared by
    the evaluator ({!order_body}), the cost model
    ([Qf_core.Cost.estimate_rule]) and the bound certifier
    ([Qf_analysis.Absint]), each with its own per-atom estimate.
    [greedy_order ~matches body] repeatedly
    - emits every negated and arithmetic literal whose terms (binding
      keys, as in {!Ast.binding_key}) are all bound, in body order;
    - otherwise emits the positive subgoal with the fewest estimated
      matches [matches bound atom] under the current bound-key set,
      breaking a tie toward the subgoal with more bound or constant
      positions, then toward the earlier one; the first body atom equal
      to it is consumed.
    Each literal comes paired with the sorted binding keys bound before
    it.  Raises {!Error} when only literals with unbound terms remain
    (an unsafe body). *)
val greedy_order :
  matches:(string list -> Ast.atom -> float) ->
  Ast.literal list ->
  (string list * Ast.literal) list

(** {!greedy_order} of a safe rule's body, estimating an atom's index
    matches System-R-style from catalog statistics: |R| divided by the
    distinct counts of its bound (or constant) columns.  Raises {!Error}
    if the rule is unsafe. *)
val order_body : Qf_relational.Catalog.t -> Ast.rule -> Ast.literal list

(** {1 Whole-rule evaluation} *)

(** Column names for a rule's head arguments: a [Var] contributes its name,
    a constant contributes ["c<i>"].  The first occurrence of a name keeps
    it; each later one becomes [name_k] with the smallest [k >= 2] that is
    neither a head name nor already taken: [B,B] gives [B; B_2] and
    [B,B,B_2] gives [B; B_3; B_2].  Raises {!Error} on a parameter. *)
val head_columns : Ast.rule -> string list

(** [tabulate catalog rule] treats parameters as free grouping variables and
    returns the relation with schema [$p1; ...; $pk] (sorted parameter
    names, each prefixed with [$]) followed by {!head_columns}, containing
    the distinct (parameter values, head values) combinations derivable
    from the body.  This is the building block of both direct flock
    evaluation and FILTER steps.  Raises {!Error} on an unsafe rule. *)
val tabulate :
  ?sip:(string * Qf_relational.Sip.t) list ->
  Qf_relational.Catalog.t ->
  Ast.rule ->
  Qf_relational.Relation.t

(** [answers catalog ~bindings rule] evaluates the rule with all parameters
    bound by [bindings] (keys as in {!Ast.binding_key}, e.g. ["$s"]) and
    returns the head relation.  Raises {!Error} if a parameter is unbound
    or the rule is unsafe. *)
val answers :
  Qf_relational.Catalog.t ->
  bindings:(string * Qf_relational.Value.t) list ->
  Ast.rule ->
  Qf_relational.Relation.t

(** {1 FILTER steps} *)

(** A FILTER's group table being filled: the groups of [keys] (parameter
    binding keys, e.g. ["$p"]) of the distinct answer rows fed to it, each
    with its aggregate.  An answer row is every bound parameter (sorted),
    then the rule's head, positionally, so the rules of a union feed one
    table as their tabulations would, renamed positionally.  In memory it is
    a code-keyed {!Qf_relational.Aggregate.table}; under a governor with a
    finite memory budget the answer rows are kept as a relation instead,
    grouped when the filter is applied by
    {!Qf_relational.Aggregate.group_filter_report}, which can spill. *)
type groups

(** [groups query ~keys ~func] is an empty table for a FILTER over
    [query] (one rule, or a union).  [func] names head columns as
    {!head_columns} gives them for the first rule.  Raises {!Error} when
    it names none.  A [bounding] FILTER (default [false]) only
    upper-bounds a later step, and groups as a bounding
    {!Qf_relational.Aggregate.table} does. *)
val groups :
  ?bounding:bool ->
  Ast.query ->
  keys:string list ->
  func:Qf_relational.Aggregate.func ->
  groups

(** [add_envs g rule envs] feeds [rule]'s environments [envs] into [g].
    Every key of [g] and every head variable must be bound; raises
    {!Error} otherwise. *)
val add_envs : groups -> Ast.rule -> Envs.t -> unit

(** [filter_groups g ~threshold] applies the FILTER: the [keys] of the
    groups whose aggregate {!Qf_relational.Aggregate.passes} the
    threshold, as a relation over [keys] — with the number of answer rows
    fed and the number of groups.  [slack] as in
    {!Qf_relational.Aggregate.filter_table}. *)
val filter_groups :
  ?slack:(int array -> float) ->
  groups ->
  threshold:float ->
  Qf_relational.Relation.t * int * int

(** [supports catalog rule ~key] maps each value of the parameter binding
    key [key] that [rule]'s body derives, by its dictionary code, to its
    COUNT: the number of distinct answer rows with that value.  Counted
    in memory whatever the budget (one entry per value). *)
val supports :
  Qf_relational.Catalog.t -> Ast.rule -> key:string -> (int, float) Hashtbl.t

(** [filter_query catalog query ~keys ~func ~threshold] is the FILTER
    step FILTER([keys], [query], [func] >= [threshold]): every rule of
    [query] fed into one {!groups} table, then {!filter_groups} — the
    survivors as a relation over [keys], the number of rows the union of
    the rules' tabulations ({!tabulate}, renamed positionally) holds and
    the number of groups.
    [sip] as in {!Envs.extend_pos}, [bounding] as in {!groups}.

    In memory, each rule is counted inside its last positive subgoal's
    probe loop: no tabulated relation is built
    and no second grouping pass runs.  A body with no positive subgoal
    feeds its environments.  Under a finite memory budget each rule is
    tabulated and the rows grouped by the governed pass, so it can
    spill.  Either way the result, the counts and the
    [aggregate.group_filter] span are the same.  Raises {!Error} if
    {!Ast.wf_query} fails or a rule is unsafe. *)
val filter_query :
  ?sip:(string * Qf_relational.Sip.t) list ->
  ?bounding:bool ->
  Qf_relational.Catalog.t ->
  Ast.query ->
  keys:string list ->
  func:Qf_relational.Aggregate.func ->
  threshold:float ->
  Qf_relational.Relation.t * int * int
