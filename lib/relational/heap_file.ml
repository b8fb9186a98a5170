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

(* Records go into the last page, or into a fresh one when it is full. *)
let add_record t buf len =
  let page = Pager.read t.pager t.last_page in
  if Page.add_slice page buf 0 len then Pager.mark_dirty t.pager t.last_page
  else begin
    let id, fresh = Pager.append t.pager in
    if not (Page.add_slice fresh buf 0 len) then
      invalid_arg "Heap_file.append: record exceeds the page payload";
    t.last_page <- id
  end

let append t tup =
  (* Fault-injection site: appends are where spills write. *)
  Qf_governor.Fault.point "heap.append";
  if Tuple.arity tup <> Schema.arity t.schema then
    invalid_arg "Heap_file.append: arity mismatch";
  let record = Codec.tuple_to_string tup in
  add_record t (Bytes.unsafe_of_string record) (String.length record)

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
  add_record t t.row (Bytes.length t.row)

let iter f t =
  for id = 1 to Pager.page_count t.pager - 1 do
    Page.iter (fun record -> f (Codec.tuple_of_string record)) (Pager.read t.pager id)
  done

let to_relation t =
  let rel = Relation.create t.schema in
  iter (Relation.add rel) t;
  rel

let to_chunk t =
  let arity = Schema.arity t.schema in
  let width = code_width * arity in
  (* A record takes its [width] bytes plus a 4-byte slot, so no data page
     holds more than [Page.size / (width + 4)]: the columns are sized
     once. *)
  let bound = (Pager.page_count t.pager - 1) * (Page.size / (width + 4)) in
  let cols = Array.init arity (fun _ -> Array.make bound 0) in
  let n = ref 0 in
  let read bytes off len =
    if len <> width then failwith "Heap_file.to_chunk: not a code record";
    let i = !n in
    for c = 0 to arity - 1 do
      let at = off + (code_width * c) in
      Array.unsafe_set (Array.unsafe_get cols c) i
        (Bytes.get_uint16_le bytes at
        lor (Bytes.get_uint16_le bytes (at + 2) lsl 16))
    done;
    n := i + 1
  in
  for id = 1 to Pager.page_count t.pager - 1 do
    Page.iter_slices read (Pager.read t.pager id)
  done;
  { Chunkrel.nrows = !n; cols }

let append_relation t rel =
  if not (Schema.equal (Relation.schema rel) t.schema) then
    invalid_arg "Heap_file.append_relation: schema mismatch";
  Relation.iter (append t) rel

let cache_stats t = Pager.stats t.pager
let page_count t = Pager.page_count t.pager
let flush t = Pager.flush t.pager
let close t = Pager.close t.pager
let discard t = Pager.discard t.pager
