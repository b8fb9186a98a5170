(* Shared helpers for the test suite. *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

let relation =
  Alcotest.testable Qf_relational.Relation.pp Qf_relational.Relation.equal

(* Sorted list of tuples as strings: stable golden form for result sets. *)
let rows rel =
  List.map
    (fun tup -> Format.asprintf "%a" Qf_relational.Tuple.pp tup)
    (Qf_relational.Relation.to_sorted_list rel)

(* The rows of [idx]'s snapshot whose key columns equal [key], found by
   walking the key's bucket chain the way the join kernels probe it. *)
let index_matches (idx : Qf_relational.Index.t) key =
  let module Chunkrel = Qf_relational.Chunkrel in
  let codes = Array.of_list (List.map Qf_relational.Dict.encode key) in
  let matches j =
    let rec eq k =
      k >= Array.length codes || (idx.key_cols.(k).(j) = codes.(k) && eq (k + 1))
    in
    eq 0
  in
  let rec walk j acc =
    if j < 0 then acc
    else
      walk idx.next.(j)
        (if matches j then Chunkrel.tuple_at idx.chunk j :: acc else acc)
  in
  walk idx.heads.(Chunkrel.hash_codes codes land idx.mask) []

(* {1 Rules}

   Parse one rule and tabulate it: joins are rule bodies, evaluated by
   the binding extension. *)

let tabulate cat text =
  match Qf_datalog.Parser.parse_rule text with
  | Ok r -> Qf_datalog.Eval.tabulate cat r
  | Error e -> Alcotest.failf "parse %S: %s" text e

(* {1 A join-order tie}

   [r(X,Y,C)] holds 100 rows with [X = i], [Y = i mod 5] and [C] the
   string of [i mod 10]; [s(Y)] holds 0-9.  In [tie_rule], [s(Y)] and
   [r(X,Y,"3")] both start at 10 estimated matches (10 rows; 100 rows
   over 10 values of [C]), and the join order breaks the tie toward
   [r(X,Y,"3")] and its constant position.  The rule tabulates 10 rows. *)

let tie_catalog () =
  let module V = Qf_relational.Value in
  let cat = Qf_relational.Catalog.create () in
  Qf_relational.Catalog.add cat "r"
    (Qf_relational.Relation.of_values [ "X"; "Y"; "C" ]
       (List.init 100 (fun i ->
            [ V.Int i; V.Int (i mod 5); V.Str (string_of_int (i mod 10)) ])));
  Qf_relational.Catalog.add cat "s"
    (Qf_relational.Relation.of_values [ "Y" ]
       (List.init 10 (fun i -> [ V.Int i ])));
  cat

let tie_rule =
  match Qf_datalog.Parser.parse_rule {|answer(X) :- s(Y) AND r(X,Y,"3")|} with
  | Ok r -> r
  | Error e -> failwith e

(* A heap file in the paged layout stores were once written in, which
   the flat format does not read: 4 KiB pages, each a u16 slot count, a
   u16 free offset, then a (u16 offset, u16 length) slot per record, with
   the records packed from the page's end.  Page 0 holds the schema's
   record; the pages after it hold [rows], each a list of u32 codes. *)
let write_paged_heap_file path schema rows =
  let size = 4096 in
  let page records =
    let b = Bytes.make size '\000' in
    let _, free =
      List.fold_left
        (fun (i, free) r ->
          let len = String.length r in
          Bytes.blit_string r 0 b (free - len) len;
          Bytes.set_uint16_le b (4 + (4 * i)) (free - len);
          Bytes.set_uint16_le b (6 + (4 * i)) len;
          i + 1, free - len)
        (0, size) records
    in
    Bytes.set_uint16_le b 0 (List.length records);
    Bytes.set_uint16_le b 2 free;
    Bytes.to_string b
  in
  let record codes =
    let b = Bytes.create (4 * List.length codes) in
    List.iteri (fun c code -> Bytes.set_int32_le b (4 * c) (Int32.of_int code)) codes;
    Bytes.to_string b
  in
  let per_page = (size - 4) / ((4 * Qf_relational.Schema.arity schema) + 4) in
  let rec data = function
    | [] -> []
    | records ->
      page (List.filteri (fun i _ -> i < per_page) records)
      :: data (List.filteri (fun i _ -> i >= per_page) records)
  in
  let records = List.map record rows in
  Out_channel.with_open_bin path (fun oc ->
      List.iter (output_string oc)
        (page [ Qf_relational.Codec.schema_to_string schema ]
        :: (if records = [] then [ page [] ] else data records)))
