module Buf = Chunkrel.Buf

(* A relation is a schema over one tuple set, held once: one growable
   code column per attribute, rows numbered [0, nrows) in insertion
   order.  [slots] is an open-addressing set of row indices (-1: empty)
   keyed by {!Chunkrel.hash_key}, at most half full, serving insertion
   and membership only; it is built from the columns the first time
   [add] or [mem] needs it ([[||]] until then). *)

type t = {
  id : int;
  schema : Schema.t;
  cols : Buf.buf array;
  mutable nrows : int;
  mutable slots : int array;
  mutable version : int;
}

(* Identity for the catalog's index cache: ids are process-unique, and
   [version] bumps on every successful insertion, so (id, version) names
   one immutable snapshot of the tuple set. *)
let next_id = ref 0

let make schema cols nrows =
  let id = !next_id in
  incr next_id;
  {
    id;
    schema;
    cols;
    nrows;
    slots = [||];
    version = 0;
  }

let create schema =
  make schema (Array.init (Schema.arity schema) (fun _ -> Buf.create 64)) 0

(* Kernel outputs whose rows are known distinct (filtered subsets,
   deduplicated projections, group keys).  The columns are adopted, not
   copied; a later [add] reallocates rather than write into them. *)
let of_chunkrel schema (chunk : Chunkrel.t) =
  if Array.length chunk.Chunkrel.cols <> Schema.arity schema then
    invalid_arg "Relation.of_chunkrel: arity mismatch";
  make schema
    (Array.map (fun col -> Buf.wrap col chunk.Chunkrel.nrows) chunk.Chunkrel.cols)
    chunk.Chunkrel.nrows

let id t = t.id
let version t = t.version
let schema t = t.schema
let arity t = Schema.arity t.schema
let cardinal t = t.nrows
let is_empty t = cardinal t = 0

(* The live column arrays, not copied.  Appends write only at row
   [nrows] or later, and growth reallocates, so the snapshot's rows never
   change. *)
let codes t = { Chunkrel.nrows = t.nrows; cols = Array.map Buf.backing t.cols }

let prepare _ = ()

(* {1 The row set} *)

(* The slot holding a row for which [same] holds, or else the empty slot
   where a row with hash [h] goes. *)
let find_slot slots h same =
  let mask = Array.length slots - 1 in
  let rec go s =
    let j = Array.unsafe_get slots s in
    if j < 0 || same j then s else go ((s + 1) land mask)
  in
  go (h land mask)

(* Rehash every row into [capacity] slots; rows are distinct, so each
   lands in an empty one. *)
let rebuild t capacity =
  let cols = (codes t).Chunkrel.cols in
  let slots = Array.make (Chunkrel.hash_capacity capacity) (-1) in
  for i = 0 to t.nrows - 1 do
    slots.(find_slot slots (Chunkrel.hash_key cols i) (fun _ -> false)) <- i
  done;
  t.slots <- slots

let row_set t =
  if t.slots = [||] then rebuild t (2 * t.nrows);
  t.slots

let holds t codes j =
  let rec loop c =
    c >= Array.length codes || (Buf.get t.cols.(c) j = codes.(c) && loop (c + 1))
  in
  loop 0

let mem_codes t codes =
  let slots = row_set t in
  slots.(find_slot slots (Chunkrel.hash_codes codes) (holds t codes)) >= 0

let add_codes t codes =
  if Array.length codes <> arity t then
    invalid_arg
      (Printf.sprintf "Relation.add: arity mismatch (%d vs %d)"
         (Array.length codes) (arity t));
  let cap = Array.length (row_set t) in
  if 2 * (t.nrows + 1) > cap then rebuild t (2 * cap);
  let s = find_slot t.slots (Chunkrel.hash_codes codes) (holds t codes) in
  if t.slots.(s) < 0 then begin
    Array.iteri (fun c code -> Buf.push t.cols.(c) code) codes;
    t.slots.(s) <- t.nrows;
    t.nrows <- t.nrows + 1;
    t.version <- t.version + 1
  end

(* {1 The row API} *)

let add t tup =
  add_codes t
    (Array.init (Tuple.arity tup) (fun c -> Dict.encode (Tuple.get tup c)))

(* A value the dictionary has never seen occurs in no relation. *)
let mem t tup =
  let codes = List.map Dict.find_opt (Tuple.to_list tup) in
  Tuple.arity tup = arity t
  && List.for_all Option.is_some codes
  && mem_codes t (Array.of_list (List.map Option.get codes))

(* [f] sees each row's codes, in one array reused from row to row. *)
let iter_codes f t =
  let chunk = codes t in
  let row = Array.make (arity t) 0 in
  for i = 0 to t.nrows - 1 do
    Array.iteri (fun c col -> row.(c) <- col.(i)) chunk.Chunkrel.cols;
    f row
  done

let add_all ?unless dst src =
  iter_codes
    (fun row ->
      match unless with
      | Some u when mem_codes u row -> ()
      | _ -> add_codes dst row)
    src

let fold f t init =
  let chunk = codes t in
  let acc = ref init in
  for i = 0 to chunk.Chunkrel.nrows - 1 do
    acc := f (Chunkrel.tuple_at chunk i) !acc
  done;
  !acc

let iter f t = fold (fun tup () -> f tup) t ()

let to_list t = fold List.cons t []
let to_sorted_list t = List.sort Tuple.compare (to_list t)

let of_list schema tuples =
  let rel = create schema in
  List.iter (add rel) tuples;
  rel

let of_values columns rows =
  of_list (Schema.of_list columns) (List.map Tuple.of_list rows)

(* {1 Projection}

   Deduplicates over the code rows of the projected columns and gathers
   the output columns once. *)

let project t cols =
  let positions = Array.of_list (List.map (Schema.position t.schema) cols) in
  let chunk = codes t in
  let pcols = Array.map (fun p -> chunk.Chunkrel.cols.(p)) positions in
  let kept = Chunkrel.distinct_rows pcols chunk.Chunkrel.nrows in
  of_chunkrel
    (Schema.restrict t.schema cols)
    { Chunkrel.nrows = Array.length kept; cols = Chunkrel.gather_cols pcols kept }

(* Distinct codes of the column, decoded once each. *)
let column_values t col =
  let chunk = codes t in
  let col = chunk.Chunkrel.cols.(Schema.position t.schema col) in
  let kept = Chunkrel.distinct_rows [| col |] chunk.Chunkrel.nrows in
  Array.fold_left (fun acc i -> Dict.decode col.(i) :: acc) [] kept

(* Budget accounting for the catalog's LRU caches.  Deliberately a
   function of (cardinal, arity) only — never of whether the row set is
   built — so cache eviction order, and therefore the memo.evict
   counters, do not depend on which kernels touched the relation. *)
let approx_bytes t = (16 * (arity t + 2) * cardinal t) + 256

let equal a b =
  arity a = arity b
  && cardinal a = cardinal b
  &&
  match iter_codes (fun row -> if not (mem_codes b row) then raise Exit) a with
  | () -> true
  | exception Exit -> false

let pp ppf t =
  Format.fprintf ppf "@[<v>%a: %d tuples@,%a@]" Schema.pp t.schema (cardinal t)
    (Format.pp_print_list Tuple.pp)
    (to_sorted_list t)
