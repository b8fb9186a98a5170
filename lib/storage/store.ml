module Relation = Qf_relational.Relation
module Catalog = Qf_relational.Catalog
module Heap_file = Qf_relational.Heap_file

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
let path t name = Filename.concat t.dir (name ^ extension)

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

let save t name rel =
  check_name name;
  let file = Heap_file.create (path t name) (Relation.schema rel) in
  Fun.protect
    ~finally:(fun () -> Heap_file.close file)
    (fun () -> Heap_file.append_relation file rel)

let mem t name = safe_name name && Sys.file_exists (path t name)

let load t name =
  check_name name;
  if not (Sys.file_exists (path t name)) then
    failwith (Printf.sprintf "Store.load: no relation %S in %s" name t.dir);
  let file = Heap_file.open_existing (path t name) in
  Fun.protect
    ~finally:(fun () -> Heap_file.close file)
    (fun () -> Heap_file.to_relation file)

let to_catalog t =
  let catalog = Catalog.create () in
  List.iter (fun name -> Catalog.add catalog name (load t name)) (list t);
  catalog

let of_catalog dir catalog =
  let t = open_dir dir in
  List.iter (fun name -> save t name (Catalog.find catalog name)) (Catalog.names catalog);
  t
