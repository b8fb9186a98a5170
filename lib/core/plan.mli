(** FILTER-step query plans (paper Sec. 4.1–4.2).

    A plan is a sequence of steps
    [R(P) := FILTER(P, Q, C)], each defining an auxiliary relation [R] over
    a set of parameters [P]; the last step defines the flock's result.  The
    paper's {e Rule for Generating Query Plans} constrains each step:

    + it uses the same filter condition [C] as the flock;
    + it defines a uniquely named relation;
    + its query is derived from the flock's query by adding zero or more
      subgoals that are heads of earlier steps and deleting zero or more
      original subgoals, keeping the query safe;
    + the final step deletes no original subgoal.

    For a union query, a step derives per-rule: rule [i] of the step's query
    is derived from rule [i] of the flock's query (Sec. 3.4).  A step whose
    query drops a rule of the union entirely is illegal (it would not be an
    upper bound).

    One extension beyond the paper's literal-copy rule: an [ok]-subgoal may
    carry a {e renaming} of its step's parameters when the step's query
    under that renaming is itself derivable from the flock — the parameter
    symmetry that classic a-priori exploits (the paper's footnote 3).  This
    is what lets the levelwise k-itemset plan prune by {e all} (k-1)-subsets
    rather than only the lexicographic prefix. *)

type step = {
  name : string;  (** relation the step defines, e.g. ["ok_s"] *)
  params : string list;  (** sorted parameters of the step's query *)
  query : Qf_datalog.Ast.query;
      (** per-rule: retained original subgoals plus [ok]-subgoals *)
}

type t = private {
  flock : Flock.t;
  steps : step list;  (** earlier auxiliary steps, in execution order *)
  final : step;  (** full query plus [ok]-subgoals; defines the result *)
}

(** Construct a step; [params] is derived from the query. *)
val step : name:string -> Qf_datalog.Ast.query -> step

(** Validate the plan-generation rule and package a plan.  Plans with at
    least one auxiliary step also require a monotone filter (no upper-bound
    argument exists otherwise); the trivial zero-step plan is sound for any
    filter. *)
val make : Flock.t -> steps:step list -> final:step -> (t, string) result

val make_exn : Flock.t -> steps:step list -> final:step -> t

(** The trivial plan: no auxiliary steps; the final step is the flock's own
    query.  Always legal; equivalent to {!Direct.run}. *)
val trivial : Flock.t -> t

(** {1 Plan auditing}

    Installed auditors are consulted, in installation order, at the end of
    every successful {!make}: if one rejects, [make] returns its error
    prefixed with the auditor's name (and [make_exn] raises).  The
    intended auditors are [Qf_analysis.Plan_check.verify] (an independent
    re-implementation of the Sec. 4.2 legality rule) and
    [Qf_analysis.Validate.verify] (a containment-based translation
    validator); installing them turns every plan construction into a
    cross-checked one, like a sanitizer for plan generation. *)

(** Install (or replace) the auditor registered under [name]. *)
val add_auditor : name:string -> (t -> (unit, string) result) -> unit

(** Remove the auditor registered under [name] (no-op when absent). *)
val remove_auditor : name:string -> unit

(** All steps in execution order (auxiliary then final). *)
val all_steps : t -> step list

(** Number of auxiliary filter steps. *)
val filter_step_count : t -> int
