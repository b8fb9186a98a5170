(** Plan generation: the generalized a-priori strategies of Sec. 4.3.

    Strategy 1 ({!param_set_plan}): choose parameter sets; for each, one
    FILTER step built from a safe subquery with exactly those parameters
    (per rule of the union, Sec. 3.4); the final step joins all resulting
    [ok] relations into the original query.  This specializes to classic
    a-priori for two-item sets.

    Strategy 2 ({!chain_plan}): a sequence of steps over growing subsets of
    the subgoals, each step's query including the previous step's [ok]
    relation — the (n+1)-step plan of Fig. 7.  {!levelwise_basket} uses the
    same idea plus parameter symmetry to reproduce classic a-priori for
    k-item sets (footnote 3). *)

(** How to choose, per rule, among the safe subqueries with a given
    parameter set.  [`Fewest_subgoals] favors the cheapest-looking bound;
    [`Cheapest env] ranks by {!Cost.estimate_rule}. *)
type selection = [ `Fewest_subgoals | `Cheapest of Qf_datalog.Sizes.t ]

(** [param_set_step flock set] is the auxiliary FILTER step for one
    parameter set, named [ok_<params>]: per rule of the union, one safe
    subquery with exactly [set]'s parameters.  Fails as
    {!param_set_plan} does for that set. *)
val param_set_step :
  ?selection:selection -> Flock.t -> string list -> (Plan.step, string) result

(** [plan_of_classes flock classes] is the strategy-1 plan over the given
    auxiliary steps, each with the parameter lists it stands for: the
    final step is the flock's query with one [ok] subgoal per listed
    parameter list added to each rule.  A step listed with its own
    parameters is the paper's literal [ok] subgoal; a step listed with
    several lists is an α-class of symmetric steps, computed once and
    renamed per member (footnote 3), e.g. [ok_1($1)], [ok_1($2)],
    [ok_1($3)].  A list renames the step's parameters positionally. *)
val plan_of_classes :
  Flock.t -> (Plan.step * string list list) list -> (Plan.t, string) result

(** [param_set_plan flock ~param_sets] builds a strategy-1 plan with one
    auxiliary step per parameter set (in the given order).  Fails if some
    rule of the union has no safe subquery for one of the sets, or if a set
    is empty/not a subset of the flock's parameters. *)
val param_set_plan :
  ?selection:selection ->
  Flock.t ->
  param_sets:string list list ->
  (Plan.t, string) result

(** Strategy 1 with every singleton parameter set (the Fig. 5 shape).
    Parameter sets that admit no safe subquery are skipped silently. *)
val singleton_plan : ?selection:selection -> Flock.t -> (Plan.t, string) result

(** [chain_plan flock ~prefixes] (single-rule flocks): step [k] keeps the
    body literals whose indices are in [List.nth prefixes k] plus the
    previous step's [ok] subgoal.  Every prefix must yield a safe rule with
    the full parameter set.  Reproduces Fig. 7 when the prefixes grow one
    arc at a time. *)
val chain_plan : Flock.t -> prefixes:int list list -> (Plan.t, string) result

(** [basket_rule ~pred ?prev k] is the k-item basket rule:
    [answer(B) :- pred(B,$1) AND ... AND pred(B,$k)], every pairwise
    [$i < $j], and, when [prev] is given and [k > 1], the relation [prev]
    applied to every (k-1)-subset of [$1..$k] (the parameter-symmetry
    pruning of footnote 3).  {!basket_flock}, {!levelwise_basket} and
    {!Sequence.frequent_levels} all build their rules with it. *)
val basket_rule : pred:string -> ?prev:string -> int -> Qf_datalog.Ast.rule

(** [basket_flock ~pred ~k ~support] is the market-basket flock for k-item
    sets: [answer(B) :- pred(B,$i1) AND ... AND pred(B,$ik) AND $i1 < $i2
    AND ...], [COUNT >= support]. *)
val basket_flock : pred:string -> k:int -> support:int -> Flock.t

(** The levelwise a-priori plan for {!basket_flock}: one step per level
    [j = 1 .. k-1] computing the frequent [j]-sets, each level pruned by
    {e all} its [(j-1)]-subsets via the symmetry of the parameters; the
    final step computes the frequent k-sets.  This is classic a-priori
    expressed as a query-flock plan. *)
val levelwise_basket : pred:string -> k:int -> support:int -> Flock.t * Plan.t
