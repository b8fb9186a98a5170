module Value = Qf_relational.Value
module Tuple = Qf_relational.Tuple
module Schema = Qf_relational.Schema
module Relation = Qf_relational.Relation
module Heap_file = Qf_relational.Heap_file

type pair_count = {
  item1 : Value.t;
  item2 : Value.t;
  support : int;
}

(* Hash tables keyed by values and value pairs (polymorphic hash is fine:
   Value.t is a plain variant). *)
module Vtbl = Hashtbl

let check_schema file =
  if Schema.arity (Heap_file.schema file) <> 2 then
    invalid_arg "File_mining: expected a (BID, Item) heap file"

let frequent_pairs file ~support =
  check_schema file;
  (* Pass 1: per-item distinct-basket counts.  Duplicated (B, item) rows
     must not double-count, so track seen pairs. *)
  let item_counts : (Value.t, int) Vtbl.t = Vtbl.create 1024 in
  let seen : (Value.t * Value.t, unit) Vtbl.t = Vtbl.create 4096 in
  Heap_file.iter
    (fun tup ->
      let b = Tuple.get tup 0 and item = Tuple.get tup 1 in
      if not (Vtbl.mem seen (b, item)) then begin
        Vtbl.add seen (b, item) ();
        Vtbl.replace item_counts item
          (1 + Option.value (Vtbl.find_opt item_counts item) ~default:0)
      end)
    file;
  Vtbl.reset seen;
  let frequent item =
    match Vtbl.find_opt item_counts item with
    | Some n -> n >= support
    | None -> false
  in
  (* Pass 2: accumulate each basket's surviving items; the a-priori filter
     is what keeps this in-memory structure small. *)
  let baskets : (Value.t, Value.t list) Vtbl.t = Vtbl.create 4096 in
  Heap_file.iter
    (fun tup ->
      let b = Tuple.get tup 0 and item = Tuple.get tup 1 in
      if frequent item then begin
        let existing = Option.value (Vtbl.find_opt baskets b) ~default:[] in
        if not (List.exists (Value.equal item) existing) then
          Vtbl.replace baskets b (item :: existing)
      end)
    file;
  let pair_counts : (Value.t * Value.t, int) Vtbl.t = Vtbl.create 4096 in
  Vtbl.iter
    (fun _b items ->
      let items = List.sort Value.compare items in
      let rec pairs = function
        | [] -> ()
        | x :: rest ->
          List.iter
            (fun y ->
              let key = x, y in
              Vtbl.replace pair_counts key
                (1 + Option.value (Vtbl.find_opt pair_counts key) ~default:0))
            rest;
          pairs rest
      in
      pairs items)
    baskets;
  Vtbl.fold
    (fun (item1, item2) n acc ->
      if n >= support then { item1; item2; support = n } :: acc else acc)
    pair_counts []
  |> List.sort (fun a b ->
         match Value.compare a.item1 b.item1 with
         | 0 -> Value.compare a.item2 b.item2
         | c -> c)

let frequent_pairs_relation file ~support =
  let out = Relation.create (Schema.of_list [ "$1"; "$2" ]) in
  List.iter
    (fun { item1; item2; _ } -> Relation.add out (Tuple.of_array [| item1; item2 |]))
    (frequent_pairs file ~support);
  out
