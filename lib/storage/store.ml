module Relation = Qf_relational.Relation
module Catalog = Qf_relational.Catalog
module Heap_file = Qf_relational.Heap_file
module Codec = Qf_relational.Codec
module Chunkrel = Qf_relational.Chunkrel
module Dict = Qf_relational.Dict
module Vtbl = Hashtbl.Make (Qf_relational.Value)

type t = { dir : string }

let extension = ".qfh"

let safe_name name =
  name <> ""
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true | _ -> false)
       name

let open_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    failwith (Printf.sprintf "Store.open_dir: %s is not a directory" dir);
  { dir }

let open_existing dir =
  if not (Sys.file_exists dir) then
    failwith (Printf.sprintf "Store.open_existing: %s does not exist" dir);
  open_dir dir

let dir t = t.dir

(* A relation's heap file of codes, and its value table beside it. *)
let path t name = Filename.concat t.dir (name ^ extension)
let table_path t name = Filename.concat t.dir (name ^ ".qfv")

let list t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter_map (fun f ->
         if Filename.check_suffix f extension then
           Some (Filename.chop_suffix f extension)
         else None)
  |> List.sort String.compare

let check_name name =
  if not (safe_name name) then
    invalid_arg (Printf.sprintf "Store: unsafe relation name %S" name)

(* [rel]'s distinct values, in order of first appearance, and its code
   columns rewritten as indices into them. *)
let local_codes rel =
  let { Chunkrel.nrows; cols } = Relation.codes rel in
  let index = Array.make (Dict.size ()) (-1) and seen = Chunkrel.Buf.create 64 in
  let local code =
    if index.(code) < 0 then begin
      index.(code) <- Chunkrel.Buf.length seen;
      Chunkrel.Buf.push seen code
    end;
    index.(code)
  in
  let cols = Array.map (fun col -> Array.init nrows (fun i -> local col.(i))) cols in
  Array.map Dict.decode (Chunkrel.Buf.to_array seen), cols

let save t name rel =
  check_name name;
  let values, cols = local_codes rel in
  let file = ref None in
  try
    Out_channel.with_open_bin (table_path t name) (fun oc ->
        output_string oc (Codec.values_to_string values));
    let f = Heap_file.create (path t name) (Relation.schema rel) in
    file := Some f;
    for i = 0 to Relation.cardinal rel - 1 do
      Heap_file.append_codes f cols i
    done;
    Heap_file.close f
  with e ->
    (* A half-written relation must not load as a part of itself. *)
    Option.iter Heap_file.discard !file;
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ table_path t name; path t name ];
    raise e

let mem t name = safe_name name && Sys.file_exists (path t name)

let with_codes t name f =
  check_name name;
  let fail fmt = Printf.ksprintf failwith ("Store.load: relation %S in %s " ^^ fmt) name t.dir in
  if not (Sys.file_exists (path t name)) then fail "does not exist";
  if not (Sys.file_exists (table_path t name)) then
    fail "has no value table (an old-format store): re-import it with flockc import";
  let values =
    Codec.values_of_string (In_channel.with_open_bin (table_path t name) In_channel.input_all)
  in
  let seen = Vtbl.create (Array.length values) in
  Array.iter
    (fun v ->
      if Vtbl.mem seen v then fail "holds a value twice in its value table";
      Vtbl.add seen v ())
    values;
  let file =
    try Heap_file.open_existing (path t name)
    with Failure msg -> fail "is unreadable (%s): re-import it with flockc import" msg
  in
  Fun.protect ~finally:(fun () -> Heap_file.close file) (fun () -> f values file)

let load t name =
  with_codes t name @@ fun values file ->
  let remap = Array.map Dict.encode values in
  let ({ Chunkrel.nrows; cols } as chunk) = Heap_file.to_chunk file in
  let size = Array.length remap in
  Array.iter
    (fun col ->
      for i = 0 to nrows - 1 do
        if col.(i) >= size then
          failwith
            (Printf.sprintf "Store.load: %s: code %d is past its value table of %d values"
               name col.(i) size);
        col.(i) <- remap.(col.(i))
      done)
    cols;
  (* Set semantics is checked, not trusted: a crafted file may repeat a
     row.  An arity-0 row takes no bytes, so no file length bounds the
     count of one. *)
  if
    (cols = [||] && nrows > 1)
    || Array.length (Chunkrel.distinct_rows cols nrows) <> nrows
  then
    failwith (Printf.sprintf "Store.load: %s: a row is stored twice" name);
  Relation.of_chunkrel (Heap_file.schema file) chunk

let to_catalog t =
  let catalog = Catalog.create () in
  List.iter (fun name -> Catalog.add catalog name (load t name)) (list t);
  catalog

let of_catalog dir catalog =
  let t = open_dir dir in
  List.iter (fun name -> save t name (Catalog.find catalog name)) (Catalog.names catalog);
  t
