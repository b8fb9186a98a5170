let corrupt fmt = Format.kasprintf failwith fmt

(* Numbers are fixed-width little-endian: 8 bytes, or 4 for a u32. *)
let decode_int64 bytes off =
  if off + 8 > Bytes.length bytes then corrupt "Codec: truncated int64";
  Bytes.get_int64_le bytes off, off + 8

let decode_u32 bytes off =
  if off + 4 > Bytes.length bytes then corrupt "Codec: truncated u32";
  Int32.to_int (Bytes.get_int32_le bytes off) land 0xFFFF_FFFF, off + 4

let encode_u32 buf x = Buffer.add_int32_le buf (Int32.of_int x)

let encode_value buf = function
  | Value.Int i ->
    Buffer.add_char buf '\000';
    Buffer.add_int64_le buf (Int64.of_int i)
  | Value.Real f ->
    Buffer.add_char buf '\001';
    Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.Str s ->
    Buffer.add_char buf '\002';
    encode_u32 buf (String.length s);
    Buffer.add_string buf s

let decode_value bytes off =
  if off >= Bytes.length bytes then corrupt "Codec: truncated value tag";
  match Bytes.get bytes off with
  | '\000' ->
    let x, off = decode_int64 bytes (off + 1) in
    Value.Int (Int64.to_int x), off
  | '\001' ->
    let x, off = decode_int64 bytes (off + 1) in
    Value.Real (Int64.float_of_bits x), off
  | '\002' ->
    let len, off = decode_u32 bytes (off + 1) in
    if off + len > Bytes.length bytes then corrupt "Codec: truncated string";
    (* Intern on decode: loaded relations get pointer-fast equality. *)
    Value.str (Bytes.sub_string bytes off len), off + len
  | c -> corrupt "Codec: bad value tag %C" c

(* A value table: a u32 count, then that many values. *)
let values_to_string values =
  let buf = Buffer.create ((16 * Array.length values) + 4) in
  encode_u32 buf (Array.length values);
  Array.iter (encode_value buf) values;
  Buffer.contents buf

let values_of_string s =
  let bytes = Bytes.unsafe_of_string s in
  let n, off = decode_u32 bytes 0 in
  (* Every value takes at least 5 bytes (an empty string's tag and
     length), so a count the rest of the buffer cannot hold is rejected
     before anything is allocated. *)
  if n > (Bytes.length bytes - off) / 5 then
    corrupt "Codec: %d values cannot fit in %d bytes" n (Bytes.length bytes - off);
  let values = Array.make n (Value.Int 0) in
  let off = ref off in
  for i = 0 to n - 1 do
    let v, next = decode_value bytes !off in
    values.(i) <- v;
    off := next
  done;
  if !off <> Bytes.length bytes then corrupt "Codec: trailing bytes after %d values" n;
  values

let schema_to_string schema =
  values_to_string
    (Array.of_list (List.map (fun c -> Value.Str c) (Schema.columns schema)))

let schema_of_string s =
  let column = function
    | Value.Str c -> c
    | v -> corrupt "Codec: bad schema entry %s" (Value.to_string v)
  in
  match Schema.of_list (List.map column (Array.to_list (values_of_string s))) with
  | schema -> schema
  | exception Invalid_argument e -> corrupt "Codec: %s" e
