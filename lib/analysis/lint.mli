(** Multi-pass static analyzer for flock programs.

    Runs over the span-carrying parse ({!Qf_core.Parse.program_located}),
    so every diagnostic points at the offending subgoal.  Passes:

    + safety, re-derived from the paper's three-part condition (Sec. 3.3)
      with the exact failing condition named ([QF010]–[QF013]);
    + union well-formedness (Sec. 3.4) and parameterlessness
      ([QF002], [QF014]);
    + schema/catalog consistency: unknown relations, arity clashes within
      the program and against stored relations ([QF020]–[QF022]);
    + redundant-subgoal detection via containment-based CQ minimization
      (Sec. 3.1) ([QF030]);
    + arithmetic-subgoal reasoning: constant folding, unsatisfiable
      comparisons, contradictory pairs ([QF040]–[QF042]);
    + variable hygiene: singletons and cartesian products
      ([QF050], [QF051]);
    + FILTER sanity: non-head columns and non-monotone aggregates
      ([QF060], [QF061]);
    + view discipline ([QF063]).

    The sister module {!Plan_check} re-checks Sec. 4.2 plan legality on
    built plans. *)

(** Lint a whole program source.  Lex/parse failures yield a single
    [QF001] diagnostic with the failure span; otherwise all passes run.
    With [catalog], subgoals are additionally checked against the stored
    schemas.  The result is in source order. *)
val lint :
  ?catalog:Qf_relational.Catalog.t -> string -> Diagnostic.t list

(** Analyze an already-parsed program. *)
val check_program :
  ?catalog:Qf_relational.Catalog.t ->
  Qf_core.Parse.located_program ->
  Diagnostic.t list

(** {1 The safety pass, exposed for cross-checks} *)

(** [Ok ()] iff the Sec. 3.3 safety pass finds no [Error]-severity
    diagnostic on the rule (the first error otherwise); the property
    tests assert this agrees with {!Qf_datalog.Safety.is_safe} on random
    rules. *)
val rule_is_qf_safe : Qf_datalog.Ast.rule -> (unit, string) result
