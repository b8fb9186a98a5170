(** Minimal CSV import/export for relations.

    Format: first line is the header (column names, all distinct),
    subsequent lines are rows.  Fields are comma-separated; a field
    containing a comma, a double quote, a carriage return or a newline is
    written double-quoted with embedded quotes doubled, and such quoting is
    understood on input.  Field values are parsed with {!Value.of_string}
    (integers, then floats, then strings) and go straight to dictionary
    codes: loading builds no {!Tuple.t}.  Reals are written with enough
    digits, and a decimal point, to read back as the same [Real].

    Malformed input raises [Failure "Csv.parse: line L, column C: ..."],
    where [L] and [C] are the 1-based physical line and byte column in the
    text: of the duplicate name for a repeated header column, of the first
    byte of a row with the wrong number of fields, and of the opening quote
    of an unterminated quoted field.  Text with no header line raises
    [Failure "Csv.parse: empty input (missing header)"]. *)

val parse_string : string -> Relation.t

val to_string : Relation.t -> string

(** Raises [Sys_error] on I/O failure, [Failure] on malformed input. *)
val load : string -> Relation.t

val save : string -> Relation.t -> unit
