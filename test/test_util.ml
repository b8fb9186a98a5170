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
