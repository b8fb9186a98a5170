let size = 4096
let header_size = 4
let slot_size = 4
let max_record_size = size - header_size - slot_size

type t = { bytes : Bytes.t }

let get_u16 t off = Bytes.get_uint16_le t.bytes off
let set_u16 t off x = Bytes.set_uint16_le t.bytes off x

let slot_count t = get_u16 t 0
let free_offset t = get_u16 t 2

let create () =
  let t = { bytes = Bytes.make size '\000' } in
  set_u16 t 0 0;
  set_u16 t 2 size;
  t

let of_bytes bytes =
  if Bytes.length bytes <> size then failwith "Page.of_bytes: wrong length";
  let t = { bytes } in
  let n = slot_count t and free = free_offset t in
  if free > size || header_size + (n * slot_size) > free then
    failwith "Page.of_bytes: corrupt header";
  t

let to_bytes t = t.bytes
let count = slot_count

let free_space t =
  free_offset t - header_size - (slot_count t * slot_size) - slot_size

let add_slice t buf off len =
  if len > max_record_size then
    invalid_arg
      (Printf.sprintf "Page.add: record of %d bytes exceeds the page payload"
         len);
  if len > free_space t then false
  else begin
    let n = slot_count t in
    let record_off = free_offset t - len in
    Bytes.blit buf off t.bytes record_off len;
    let slot_off = header_size + (n * slot_size) in
    set_u16 t slot_off record_off;
    set_u16 t (slot_off + 2) len;
    set_u16 t 0 (n + 1);
    set_u16 t 2 record_off;
    true
  end

let add t record =
  add_slice t (Bytes.unsafe_of_string record) 0 (String.length record)

(* Slot [i]'s record, [(off, len)], must lie inside the record area: a
   corrupt slot directory fails here, not by reading past the page. *)
let check_slot t off len =
  if off < free_offset t || off + len > size then
    failwith "Page: slot points outside the record area"

let get t i =
  if i < 0 || i >= slot_count t then invalid_arg "Page.get: bad slot index";
  let slot_off = header_size + (i * slot_size) in
  let off = get_u16 t slot_off and len = get_u16 t (slot_off + 2) in
  check_slot t off len;
  Bytes.sub_string t.bytes off len

let iter_slices f t =
  for i = 0 to slot_count t - 1 do
    let slot_off = header_size + (i * slot_size) in
    let off = get_u16 t slot_off and len = get_u16 t (slot_off + 2) in
    check_slot t off len;
    f t.bytes off len
  done
