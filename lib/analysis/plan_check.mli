(** Independent verifier for the paper's plan-legality rule (Sec. 4.2).

    [verify] re-checks, from scratch, that a built {!Qf_core.Plan.t}
    satisfies the Rule for Generating Query Plans: every step keeps the
    flock's head and filter, adds only ok-subgoals over earlier steps
    (possibly under a parameter renaming whose instance is itself
    derivable — footnote 3), deletes only original subgoals while staying
    safe and retaining at least one, and the final step deletes nothing;
    plans with auxiliary steps require a monotone filter.

    The implementation shares no code with [Plan.make]'s own
    classification (safety comes from the analyzer's Sec. 3.3 pass, the
    subgoal accounting is an explicit multiset), so installing it via
    {!Qf_core.Plan.add_auditor} cross-checks every plan the static
    optimizer and the levelwise generator emit — a sanitizer for plan
    generation. *)

val verify : Qf_core.Plan.t -> (unit, string) result
