type t = {
  pager : Pager.t;
  schema : Schema.t;
  mutable last_page : int;  (** id of the page currently receiving appends *)
  row : Bytes.t;  (** {!append_codes}' record buffer, reused row to row *)
}

(* A code record is one row's codes, each a little-endian u32. *)
let code_width = 4
let max_code = 0xFFFF_FFFF

let make pager schema last_page =
  let row = Bytes.create (code_width * Schema.arity schema) in
  { pager; schema; last_page; row }

let create ?capacity path schema =
  if Sys.file_exists path then Sys.remove path;
  let pager = Pager.open_file ?capacity path in
  let header_id, header = Pager.append pager in
  assert (header_id = 0);
  if not (Page.add header (Codec.schema_to_string schema)) then
    failwith "Heap_file.create: schema record exceeds a page";
  Pager.mark_dirty pager header_id;
  let first_id, _ = Pager.append pager in
  make pager schema first_id

let open_existing ?capacity path =
  let pager = Pager.open_file ?capacity path in
  if Pager.page_count pager < 2 then
    failwith (Printf.sprintf "Heap_file.open: %s is not a heap file" path);
  let header = Pager.read pager 0 in
  if Page.count header < 1 then
    failwith (Printf.sprintf "Heap_file.open: %s has no schema record" path);
  let schema = Codec.schema_of_string (Page.get header 0) in
  make pager schema (Pager.page_count pager - 1)

let schema t = t.schema

let append_codes t cols i =
  Qf_governor.Fault.point "heap.append";
  if Array.length cols <> Schema.arity t.schema then
    invalid_arg "Heap_file.append_codes: arity mismatch";
  (* Every code is checked before the first is written, so a bad row
     appends nothing. *)
  for c = 0 to Array.length cols - 1 do
    let code = cols.(c).(i) in
    if code < 0 || code > max_code then
      invalid_arg "Heap_file.append_codes: code outside [0, 2^32)"
  done;
  for c = 0 to Array.length cols - 1 do
    let code = cols.(c).(i) and off = code_width * c in
    Bytes.set_uint16_le t.row off (code land 0xFFFF);
    Bytes.set_uint16_le t.row (off + 2) (code lsr 16)
  done;
  (* The record goes into the last page, or into a fresh one when that
     is full. *)
  let len = Bytes.length t.row in
  if Page.add_slice (Pager.read t.pager t.last_page) t.row 0 len then
    Pager.mark_dirty t.pager t.last_page
  else begin
    let id, fresh = Pager.append t.pager in
    if not (Page.add_slice fresh t.row 0 len) then
      invalid_arg "Heap_file.append_codes: record exceeds the page payload";
    t.last_page <- id
  end

let code_at bytes at =
  Bytes.get_uint16_le bytes at lor (Bytes.get_uint16_le bytes (at + 2) lsl 16)

(* A page holds at most this many records, each with its 4-byte slot.
   [scan] refuses a page claiming more before reading any of them, so
   [to_chunk] can size its columns from the page count. *)
let per_page t = Page.size / ((code_width * Schema.arity t.schema) + 4)

(* [read bytes off] for every code record, page by page, once its length
   is checked. *)
let scan t read =
  let width = code_width * Schema.arity t.schema and per_page = per_page t in
  let record bytes off len =
    if len <> width then failwith "Heap_file: not a code record of the file's arity";
    read bytes off
  in
  for id = 1 to Pager.page_count t.pager - 1 do
    let page = Pager.read t.pager id in
    if Page.count page > per_page then
      failwith "Heap_file: a page holds more records than fit in it";
    Page.iter_slices record page
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
  let arity = Schema.arity t.schema in
  let bound = (Pager.page_count t.pager - 1) * per_page t in
  let cols = Array.init arity (fun _ -> Array.make bound 0) in
  let n = ref 0 in
  scan t (fun bytes off ->
      let i = !n in
      for c = 0 to arity - 1 do
        Array.unsafe_set (Array.unsafe_get cols c) i
          (code_at bytes (off + (code_width * c)))
      done;
      n := i + 1);
  { Chunkrel.nrows = !n; cols }

let cache_stats t = Pager.stats t.pager
let page_count t = Pager.page_count t.pager
let close t = Pager.close t.pager
let discard t = Pager.discard t.pager
