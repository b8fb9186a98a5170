type t = {
  pager : Pager.t;
  schema : Schema.t;
  mutable last_page : int;  (** id of the page currently receiving appends *)
}

let create ?capacity path schema =
  if Sys.file_exists path then Sys.remove path;
  let pager = Pager.open_file ?capacity path in
  let header_id, header = Pager.append pager in
  assert (header_id = 0);
  if not (Page.add header (Codec.schema_to_string schema)) then
    failwith "Heap_file.create: schema record exceeds a page";
  Pager.mark_dirty pager header_id;
  let first_id, _ = Pager.append pager in
  { pager; schema; last_page = first_id }

let open_existing ?capacity path =
  let pager = Pager.open_file ?capacity path in
  if Pager.page_count pager < 2 then
    failwith (Printf.sprintf "Heap_file.open: %s is not a heap file" path);
  let header = Pager.read pager 0 in
  if Page.count header < 1 then
    failwith (Printf.sprintf "Heap_file.open: %s has no schema record" path);
  let schema = Codec.schema_of_string (Page.get header 0) in
  { pager; schema; last_page = Pager.page_count pager - 1 }

let schema t = t.schema

let append t tup =
  (* Fault-injection site: appends are where spills write. *)
  Qf_governor.Fault.point "heap.append";
  if Tuple.arity tup <> Schema.arity t.schema then
    invalid_arg "Heap_file.append: arity mismatch";
  let record = Codec.tuple_to_string tup in
  let page = Pager.read t.pager t.last_page in
  if Page.add page record then Pager.mark_dirty t.pager t.last_page
  else begin
    let id, fresh = Pager.append t.pager in
    if not (Page.add fresh record) then
      invalid_arg "Heap_file.append: record exceeds the page payload";
    t.last_page <- id
  end

let iter f t =
  for id = 1 to Pager.page_count t.pager - 1 do
    Page.iter (fun record -> f (Codec.tuple_of_string record)) (Pager.read t.pager id)
  done

let to_relation t =
  let rel = Relation.create t.schema in
  iter (Relation.add rel) t;
  rel

let append_relation t rel =
  if not (Schema.equal (Relation.schema rel) t.schema) then
    invalid_arg "Heap_file.append_relation: schema mismatch";
  Relation.iter (append t) rel

let cache_stats t = Pager.stats t.pager
let page_count t = Pager.page_count t.pager
let flush t = Pager.flush t.pager
let close t = Pager.close t.pager
let discard t = Pager.discard t.pager
