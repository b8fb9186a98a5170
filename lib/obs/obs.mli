(** Execution observability: hierarchical tracing spans and process-wide
    metrics, collected in memory and rendered on demand as text or JSON.

    The subsystem is a single global collector plus a stack of open spans
    (so nesting is tracked without threading a context value through every
    executor signature).  It holds plain mutable state and no locks: the
    engine runs on one domain, and nothing may call in from another.
    Everything is gated on {!enabled}: when disabled — the default unless
    [QF_PROFILE] is set — every entry point is a single load followed by a
    direct call of the instrumented function, so the overhead on hot paths
    is negligible.

    Conventions used by the instrumented kernels and executors:

    - FILTER steps record ["rows_in"], ["groups"], ["rows_out"] and
      ["pruning_ratio"] (surviving fraction, in [[0,1]]) on a
      ["filter.step"] span (plus ["sip_pruned"], the candidates its SIP
      reducers rejected, when they are on);
    - grouping records ["rows_in"], ["candidates"], ["survivors"]. *)

(** {1 The enabled switch} *)

(** Observability is on.  Initialized from the [QF_PROFILE] environment
    variable ([1]/[true]/[yes]); flipped by {!set_enabled}. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** {1 Spans} *)

(** Attribute values attached to spans. *)
type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type span = {
  id : int;  (** allocation order = start order; unique per {!reset} epoch *)
  parent : int option;  (** the innermost span open when this one started *)
  name : string;
  mutable attrs : (string * value) list;  (** insertion order *)
  start_s : float;  (** wall clock, {!now} *)
  mutable stop_s : float;  (** [neg_infinity] while the span is open *)
}

(** [with_span name f] runs [f] inside a span; the span finishes when [f]
    returns or raises.  When disabled this is just [f ()]. *)
val with_span : ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a

(** Set (or replace) an attribute on the innermost open span.  No-op when
    disabled or when no span is open. *)
val set_attr : string -> value -> unit

(** {1 Metrics} *)

(** [count name n] adds [n] to the counter [name] (creating it at 0). *)
val count : string -> int -> unit

(** Keep the maximum of the stored and the offered value. *)
val gauge_max : string -> float -> unit

(** Wall clock (seconds since the epoch); the clock every span uses. *)
val now : unit -> float

(** {1 Reports} *)

type report = {
  spans : span list;  (** finished spans, in start (= id) order *)
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
}

(** Snapshot of everything recorded since the last {!reset}.  Spans still
    open are not included. *)
val report : unit -> report

(** Drop all recorded spans and metrics and restart span ids at 0. *)
val reset : unit -> unit

(** {1 Rendering}

    Both renderers are deterministic: spans in id order, attributes in
    insertion order, metrics sorted by name.  With [redact_timings] every
    duration prints as ["-"] (text) or [null] (JSON) and time-named gauges
    are redacted too, so the output is byte-stable across runs — the form
    the golden tests pin down. *)

val render_text : ?redact_timings:bool -> report -> string
val render_json : ?redact_timings:bool -> report -> string

(** The body of a JSON string literal for [s] (no surrounding quotes):
    quote, backslash, newline, tab and carriage return get their short
    escapes, other control characters [\u00XX] — the one escaper of every
    JSON writer in the tree. *)
val json_escape : string -> string

(** One attribute value as a compact string (JSON-compatible for numbers
    and booleans; strings unquoted). *)
val value_to_string : value -> string
