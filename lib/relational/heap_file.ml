module Fault = Qf_governor.Fault

(* A code record is one row's codes, each a little-endian u32. *)
let code_width = 4
let max_code = 0xFFFF_FFFF

(* The header's fixed part: magic, version, record count and the
   schema's length; the schema's bytes follow it. *)
let magic = "QFHC"
let version = 1l
let prefix = 20

(* Records move between memory and the file a block of about this many
   bytes at a time. *)
let block_size = 4096

type t = {
  path : string;
  schema : Schema.t;
  width : int;  (** bytes per record *)
  body : int;  (** the offset of the first record *)
  out : out_channel option;  (** [None] for a file opened for reading *)
  mutable count : int;  (** records, written or buffered *)
  block : Bytes.t;  (** whole records: the append buffer, and the read buffer *)
  mutable fill : int;  (** bytes of [block] not yet written *)
}

let make path schema ~body ~out ~count =
  let width = code_width * Schema.arity schema in
  let records = if width = 0 then 0 else max 1 (block_size / width) in
  { path; schema; width; body; out; count; block = Bytes.create (records * width); fill = 0 }

let write oc buf len =
  Fault.point "heap.write";
  output oc buf 0 len;
  flush oc

(* Records are only ever appended, so the channel stays at the body's
   end from one block to the next. *)
let flush_block t =
  match t.out with
  | Some oc when t.fill > 0 ->
    write oc t.block t.fill;
    t.fill <- 0
  | _ -> ()

(* Every code is checked before the first is written, so a bad row
   appends nothing. *)
let append_codes t cols i =
  Fault.point "heap.append";
  if Option.is_none t.out then invalid_arg "Heap_file.append_codes: the file is open for reading";
  if Array.length cols <> Schema.arity t.schema then
    invalid_arg "Heap_file.append_codes: arity mismatch";
  for c = 0 to Array.length cols - 1 do
    let code = cols.(c).(i) in
    if code < 0 || code > max_code then
      invalid_arg "Heap_file.append_codes: code outside [0, 2^32)"
  done;
  let at = t.fill in
  for c = 0 to Array.length cols - 1 do
    let code = cols.(c).(i) and off = at + (code_width * c) in
    Bytes.set_uint16_le t.block off (code land 0xFFFF);
    Bytes.set_uint16_le t.block (off + 2) (code lsr 16)
  done;
  t.fill <- at + t.width;
  t.count <- t.count + 1;
  if t.fill = Bytes.length t.block then flush_block t

(* The header goes in last, by {!close}, once the count is known. *)
let create path schema =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path in
  let body = prefix + String.length (Codec.schema_to_string schema) in
  seek_out oc body;
  make path schema ~body ~out:(Some oc) ~count:0

(* Fill [buf]'s first [len] bytes from [ic]. *)
let read ic buf len =
  try really_input ic buf 0 len
  with End_of_file -> failwith "Heap_file: the file ends before its last record"

let open_existing path =
  let fail fmt = Printf.ksprintf (fun m -> failwith ("Heap_file.open: " ^ path ^ ": " ^ m)) fmt in
  let ic = try open_in_bin path with Sys_error e -> fail "%s" e in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let len = in_channel_length ic in
  if len < prefix then fail "%d bytes are too few for a header" len;
  let fixed = Bytes.create prefix in
  read ic fixed prefix;
  if Bytes.sub_string fixed 0 4 <> magic then fail "not a heap file of code records";
  if Bytes.get_int32_le fixed 4 <> version then
    fail "format version %ld, expected %ld" (Bytes.get_int32_le fixed 4) version;
  let count = Bytes.get_int64_le fixed 8
  and schema_len = Int32.to_int (Bytes.get_int32_le fixed 16) land max_code in
  if schema_len > len - prefix then fail "a schema of %d bytes runs past the file" schema_len;
  let schema = Codec.schema_of_string (really_input_string ic schema_len) in
  let t = make path schema ~body:(prefix + schema_len) ~out:None ~count:(Int64.to_int count) in
  (* [to_chunk] sizes its columns from the count, so the file's length
     must hold exactly that many records. *)
  let records = len - t.body in
  if
    count < 0L
    || Int64.of_int t.count <> count
    || (if t.width = 0 then records <> 0
        else records mod t.width <> 0 || records / t.width <> t.count)
  then fail "%d bytes of records disagree with a count of %Ld" records count;
  t

let schema t = t.schema
let body_bytes t = t.count * t.width

let code_at bytes at =
  Bytes.get_uint16_le bytes at lor (Bytes.get_uint16_le bytes (at + 2) lsl 16)

(* [read_record bytes off] for every record, in storage order, a block at
   a time: exactly [t.count] calls. *)
let scan t read_record =
  flush_block t;
  if t.width = 0 then
    for _ = 1 to t.count do
      read_record t.block 0
    done
  else
    In_channel.with_open_bin t.path @@ fun ic ->
    seek_in ic t.body;
    let left = ref (t.count * t.width) in
    while !left > 0 do
      Fault.point "heap.read";
      let len = min !left (Bytes.length t.block) in
      read ic t.block len;
      let off = ref 0 in
      while !off < len do
        read_record t.block !off;
        off := !off + t.width
      done;
      left := !left - len
    done

let iter_codes f t =
  let arity = Schema.arity t.schema in
  let row = Array.make arity 0 in
  scan t (fun bytes off ->
      for c = 0 to arity - 1 do
        Array.unsafe_set row c (code_at bytes (off + (code_width * c)))
      done;
      f row)

let to_chunk t =
  let arity = Schema.arity t.schema and nrows = t.count in
  let cols = Array.init arity (fun _ -> Array.make nrows 0) in
  let n = ref 0 in
  scan t (fun bytes off ->
      let i = !n in
      for c = 0 to arity - 1 do
        Array.unsafe_set (Array.unsafe_get cols c) i
          (code_at bytes (off + (code_width * c)))
      done;
      n := i + 1);
  { Chunkrel.nrows; cols }

(* Every block was flushed as it was written, so closing writes nothing. *)
let discard t = Option.iter close_out_noerr t.out

let close t =
  Fun.protect ~finally:(fun () -> discard t) @@ fun () ->
  Option.iter
    (fun oc ->
      flush_block t;
      let schema = Codec.schema_to_string t.schema in
      let header = Bytes.create t.body in
      Bytes.blit_string magic 0 header 0 4;
      Bytes.set_int32_le header 4 version;
      Bytes.set_int64_le header 8 (Int64.of_int t.count);
      Bytes.set_int32_le header 16 (Int32.of_int (String.length schema));
      Bytes.blit_string schema 0 header prefix (String.length schema);
      seek_out oc 0;
      write oc header t.body)
    t.out
