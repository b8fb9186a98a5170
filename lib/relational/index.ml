type direction = Ascending | Descending

type order = {
  direction : direction;
  rank : int array;
  slot_code : int array;
  slot_rank : int array;
  rep : int array;
}

type t = {
  heads : int array;
  next : int array;
  mask : int;
  key_cols : int array array;
  chunk : Chunkrel.t;
  order : order option;
}

(* The bucket array is the radix table: a row's key hash, masked to the
   table size, names its partition; rows sharing a partition chain
   through [next].  Build is one pass and allocation-free beyond the two
   arrays.  The index holds the snapshot it was built against, so it
   keeps describing the same tuple set even if the source relation
   mutates later. *)

(* [Value.compare] orders [Int] against [Real] through [float_of_int],
   which is not transitive once large integers round: a column holding
   both kinds is never ranked. *)
let rankable codes =
  let ints = ref false and reals = ref false in
  Array.iter
    (fun c ->
      match Dict.decode c with
      | Value.Int _ -> ints := true
      | Value.Real _ -> reals := true
      | Value.Str _ -> ())
    codes;
  not (!ints && !reals)

(* An open-addressing table of codes, [-1] for an empty slot, with a
   payload per slot. *)
let rec slot keys mask c h =
  let k = Array.unsafe_get keys h in
  if k = c || k < 0 then h else slot keys mask c ((h + 1) land mask)

let slot_of keys c =
  let mask = Array.length keys - 1 in
  slot keys mask c (Chunkrel.mix 17 c land mask)

(* The column's distinct codes, in first-seen order, each row's index
   into them, and the table (code, id) that found them: one pass over a
   table that doubles at half load, so its size follows the distinct
   count, not the rows. *)
let distinct_ids col n =
  let codes = Chunkrel.Buf.create 64 in
  let keys = ref (Array.make 64 (-1)) and ids = ref (Array.make 64 0) in
  let row_ids = Array.make n 0 in
  for i = 0 to n - 1 do
    let c = Array.unsafe_get col i in
    let tbl = !keys in
    let h = slot_of tbl c in
    if Array.unsafe_get tbl h = c then
      Array.unsafe_set row_ids i (Array.unsafe_get !ids h)
    else begin
      let id = Chunkrel.Buf.length codes in
      Chunkrel.Buf.push codes c;
      Array.unsafe_set tbl h c;
      Array.unsafe_set !ids h id;
      Array.unsafe_set row_ids i id;
      if 2 * (id + 1) > Array.length tbl then begin
        let grown = Array.make (2 * Array.length tbl) (-1) in
        let grown_ids = Array.make (2 * Array.length tbl) 0 in
        for k = 0 to id do
          let c = Chunkrel.Buf.get codes k in
          let h = slot_of grown c in
          grown.(h) <- c;
          grown_ids.(h) <- k
        done;
        keys := grown;
        ids := grown_ids
      end
    end
  done;
  Chunkrel.Buf.to_array codes, row_ids, !keys, !ids

(* Rank the column's values in [direction] (values that compare equal
   share a rank), then turn the per-row distinct ids into per-row ranks
   in place.  O(n + d log d) for [d] distinct values. *)
let rank_column col n direction =
  let dcodes, rank, slot_code, slot_rank = distinct_ids col n in
  if not (rankable dcodes) then None
  else begin
    let d = Array.length dcodes in
    let values = Array.map Dict.decode dcodes in
    let cmp a b =
      match direction with
      | Ascending -> Value.compare values.(a) values.(b)
      | Descending -> Value.compare values.(b) values.(a)
    in
    let sorted = Array.init d Fun.id in
    Array.stable_sort cmp sorted;
    let id_rank = Array.make d 0 and rep = Chunkrel.Buf.create d in
    Array.iteri
      (fun k id ->
        if k = 0 || cmp sorted.(k - 1) id <> 0 then
          Chunkrel.Buf.push rep dcodes.(id);
        id_rank.(id) <- Chunkrel.Buf.length rep - 1)
      sorted;
    for i = 0 to n - 1 do
      Array.unsafe_set rank i (Array.unsafe_get id_rank (Array.unsafe_get rank i))
    done;
    (* The code table now maps code to rank. *)
    Array.iteri
      (fun h c -> if c >= 0 then slot_rank.(h) <- id_rank.(slot_rank.(h)))
      slot_code;
    Some
      {
        direction;
        rank;
        slot_code;
        slot_rank;
        rep = Chunkrel.Buf.to_array rep;
      }
  end

let build ?order rel positions =
  let chunk = Relation.codes rel in
  let n = chunk.Chunkrel.nrows in
  let key_cols =
    Array.of_list (List.map (fun p -> chunk.Chunkrel.cols.(p)) positions)
  in
  let order =
    Option.bind order (fun (position, direction) ->
        rank_column chunk.Chunkrel.cols.(position) n direction)
  in
  let cap = Chunkrel.hash_capacity n in
  let mask = cap - 1 in
  let heads = Array.make cap (-1) in
  let next = Array.make (max 1 n) (-1) in
  let chain i =
    let b = Chunkrel.hash_key key_cols i land mask in
    next.(i) <- heads.(b);
    heads.(b) <- i
  in
  (match order with
  | None ->
    for i = 0 to n - 1 do
      chain i
    done
  | Some o ->
    (* A counting sort with no row-sized scratch: [next] first links each
       rank's rows into a list, then the lists are chained highest rank
       first (each row's successor read before [chain] overwrites it).
       Chaining prepends, so every chain comes out in ascending rank. *)
    let rank_head = Array.make (Array.length o.rep) (-1) in
    for i = 0 to n - 1 do
      let r = Array.unsafe_get o.rank i in
      next.(i) <- rank_head.(r);
      rank_head.(r) <- i
    done;
    for r = Array.length rank_head - 1 downto 0 do
      let i = ref rank_head.(r) in
      while !i >= 0 do
        let row = !i in
        i := next.(row);
        chain row
      done
    done);
  { heads; next; mask; key_cols; chunk; order }

(* The first rank at which a row stops passing: ranks below it hold
   values strictly before [v] in the chain's direction (or equal to it,
   when [inclusive]). *)
let rec cut_search o ~inclusive v lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    let c = Value.compare (Dict.decode (Array.unsafe_get o.rep mid)) v in
    let c = match o.direction with Ascending -> c | Descending -> -c in
    if c < 0 || (inclusive && c = 0) then cut_search o ~inclusive v (mid + 1) hi
    else cut_search o ~inclusive v lo mid

let cut_of_value o ~inclusive v =
  cut_search o ~inclusive v 0 (Array.length o.rep)

let cut_of_code o ~inclusive code =
  let h = slot_of o.slot_code code in
  if Array.unsafe_get o.slot_code h <> code then
    cut_of_value o ~inclusive (Dict.decode code)
  else
    let r = Array.unsafe_get o.slot_rank h in
    if inclusive then r + 1 else r

let approx_bytes t =
  let order =
    match t.order with
    | None -> 0
    | Some o ->
      8
      * (Array.length o.rank + (2 * Array.length o.slot_code)
        + Array.length o.rep)
  in
  (16 * (Array.length t.key_cols + 2) * t.chunk.Chunkrel.nrows) + order + 256
