(** Rendering plans in the paper's FILTER-program notation (cf. Fig. 5):

    {v
    ok_s($s) := FILTER(($s),
        answer(P) :-
            exhibits(P,$s),
        COUNT(answer(star)) >= 20
    );
    v}

    where [star] stands for the asterisk the real output prints. *)

val pp_step : filter:Filter.t -> head:string -> Format.formatter -> Plan.step -> unit
val pp_plan : Format.formatter -> Plan.t -> unit
val plan_to_string : Plan.t -> string

(** One-line summary: step names with their parameter sets.  A step
    whose ok subgoals rename its parameters lists every renaming after
    its own, separated by [|]: the optimizer's class of the three
    singleton steps of a triple flock shows as [ok_1($1|$2|$3)]. *)
val plan_summary : Plan.t -> string

(** {1 Profiled execution}

    [flockc explain --profile]'s backend: run the plan with observability
    enabled and pair each step's observed cardinalities and wall-clock time
    with the cost model's estimates. *)

type step_profile = {
  name : string;
  params : string list;
  rows_in : int;  (** tuples tabulated before grouping *)
  groups : int;  (** candidate parameter assignments *)
  rows_out : int;  (** assignments surviving the filter *)
  seconds : float;
  est_rows : float option;  (** cost model's predicted [rows_out], clamped *)
  est_groups : float option;  (** cost model's predicted [groups], clamped *)
  bound_rows : float option;  (** certified upper bound on [rows_out] *)
  bound_groups : float option;  (** certified upper bound on [groups] *)
  memo_hit : bool;  (** fetched from the cross-level subplan memo *)
  sip_pruned : int;  (** candidates rejected by the step's SIP reducers *)
}

type profile = {
  summary : string;  (** {!plan_summary} of the profiled plan *)
  steps : step_profile list;  (** execution order, final step last *)
  result_rows : int;
  total_seconds : float;
  counters : (string * int) list;
      (** sorted by name *)
  governor : Qf_governor.Governor.stats option;
      (** resource accounting of the governed run; [None] when the run
          was ungoverned (the profile then renders exactly as before) *)
}

(** Run [plan] with {!Qf_obs.Obs} enabled (restoring the previous enabled
    state afterwards) and collect per-step observed-vs-estimated numbers.
    Estimates are omitted when the cost model lacks statistics for a
    referenced predicate.  [clamps] maps step names to certified
    [(groups, rows)] bounds (from [Qf_analysis.Absint.clamps_of_plan]):
    estimates are clamped to [min(estimate, bound)] and the bounds are
    reported alongside them; without [clamps] the profile is identical to
    the unclamped format (no bound columns/fields).  [governor] installs
    the given governor around the run ({!Qf_governor.Governor.with_ctx})
    and reports its {!Qf_governor.Governor.stats} — peak bytes, spill
    partitions/bytes/rows — in the profile; resource faults
    ([Over_budget], [Deadline_exceeded]) propagate to the caller. *)
val profile :
  ?clamps:(string * (float * float)) list ->
  ?governor:Qf_governor.Governor.t ->
  Qf_relational.Catalog.t ->
  Plan.t ->
  profile

(** Deterministic renderers.  With [redact_timings] every duration prints
    as ["-"] (text) or [null] (JSON), making the output byte-stable for
    golden tests. *)

val profile_text : ?redact_timings:bool -> profile -> string
val profile_json : ?redact_timings:bool -> profile -> string
