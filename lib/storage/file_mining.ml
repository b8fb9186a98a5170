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

(* Both passes and every table work on the store's own codes, which
   index [values]: a value is decoded only for the pairs that survive. *)
let frequent_pairs store name ~support =
  Store.with_codes store name @@ fun values file ->
  if Schema.arity (Heap_file.schema file) <> 2 then
    invalid_arg "File_mining: expected a (BID, Item) relation";
  let n = Array.length values in
  let scan f =
    Heap_file.iter_codes
      (fun row ->
        let b = row.(0) and item = row.(1) in
        if b >= n || item >= n then
          failwith
            (Printf.sprintf "File_mining: %s: code past its value table of %d values"
               name n);
        f b item)
      file
  in
  (* Pass 1: per-item distinct-basket counts.  Duplicated (B, item) rows
     must not double-count, so track seen pairs. *)
  let item_counts = Array.make n 0 in
  let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 4096 in
  scan (fun b item ->
      if not (Hashtbl.mem seen (b, item)) then begin
        Hashtbl.add seen (b, item) ();
        item_counts.(item) <- item_counts.(item) + 1
      end);
  Hashtbl.reset seen;
  let frequent item = item_counts.(item) >= support in
  (* Frequent items ranked by their values, so a pair is keyed in
     [Value.compare] order without decoding it. *)
  let rank = Array.make n 0 in
  List.filter frequent (List.init n Fun.id)
  |> List.stable_sort (fun a b -> Value.compare values.(a) values.(b))
  |> List.iteri (fun r item -> rank.(item) <- r);
  let by_rank a b = Int.compare rank.(a) rank.(b) in
  (* Pass 2: accumulate each basket's surviving items; the a-priori filter
     is what keeps this in-memory structure small. *)
  let baskets : (int, int list) Hashtbl.t = Hashtbl.create 4096 in
  scan (fun b item ->
      if frequent item then begin
        let existing = Option.value (Hashtbl.find_opt baskets b) ~default:[] in
        if not (List.exists (Int.equal item) existing) then
          Hashtbl.replace baskets b (item :: existing)
      end);
  let pair_counts : (int * int, int) Hashtbl.t = Hashtbl.create 4096 in
  Hashtbl.iter
    (fun _b items ->
      let rec pairs = function
        | [] -> ()
        | x :: rest ->
          List.iter
            (fun y ->
              let key = x, y in
              Hashtbl.replace pair_counts key
                (1 + Option.value (Hashtbl.find_opt pair_counts key) ~default:0))
            rest;
          pairs rest
      in
      pairs (List.sort by_rank items))
    baskets;
  Hashtbl.fold
    (fun pair n acc -> if n >= support then (pair, n) :: acc else acc)
    pair_counts []
  |> List.sort (fun ((a1, a2), _) ((b1, b2), _) ->
         match by_rank a1 b1 with 0 -> by_rank a2 b2 | c -> c)
  |> List.map (fun ((x, y), n) -> { item1 = values.(x); item2 = values.(y); support = n })

let frequent_pairs_relation store name ~support =
  let out = Relation.create (Schema.of_list [ "$1"; "$2" ]) in
  List.iter
    (fun { item1; item2; _ } -> Relation.add out (Tuple.of_array [| item1; item2 |]))
    (frequent_pairs store name ~support);
  out
