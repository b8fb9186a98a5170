(** Binary serialization of values, value tables, and schemas.

    Encoding: a value is a tag byte ([0] int, [1] real, [2] string)
    followed by a fixed 8-byte little-endian payload for numbers or a
    length-prefixed (4-byte LE) byte sequence for strings.  A value table
    is a 4-byte LE count followed by that many values.  A schema
    serializes as a value table of its column names.

    Robustness contract (fuzz-tested on truncated and bit-flipped
    buffers): decoding validates every tag, length, count and bound
    against the buffer before reading, and raises [Failure] — never any
    other exception, never an out-of-bounds access — on any
    corruption. *)

val encode_value : Buffer.t -> Value.t -> unit

(** [decode_value bytes off] returns the value and the offset past it. *)
val decode_value : bytes -> int -> Value.t * int

(** A whole buffer holding a value table, and back.  Decoding rejects
    bytes left over after the last value. *)
val values_to_string : Value.t array -> string

val values_of_string : string -> Value.t array

(** Decoding also rejects a repeated column name. *)
val schema_to_string : Schema.t -> string

val schema_of_string : string -> Schema.t
