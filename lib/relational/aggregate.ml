module Pool = Qf_exec_pool.Pool
module Obs = Qf_obs.Obs
module Buf = Chunkrel.Buf
module Governor = Qf_governor.Governor

type func =
  | Count
  | Sum of string
  | Min of string
  | Max of string

let pp_func ppf = function
  | Count -> Format.pp_print_string ppf "COUNT(*)"
  | Sum c -> Format.fprintf ppf "SUM(%s)" c
  | Min c -> Format.fprintf ppf "MIN(%s)" c
  | Max c -> Format.fprintf ppf "MAX(%s)" c

exception Non_numeric of { column : string; value : Value.t }

let numeric_exn column v =
  match Value.to_float v with
  | Some f -> f
  | None -> raise (Non_numeric { column; value = v })

let eval func schema tuples =
  match tuples with
  | [] -> invalid_arg "Aggregate.eval: empty group"
  | first :: rest -> (
    match func with
    | Count -> Value.Real (float_of_int (List.length tuples))
    | Sum col ->
      let pos = Schema.position schema col in
      let total =
        List.fold_left
          (fun acc tup -> acc +. numeric_exn col (Tuple.get tup pos))
          0. tuples
      in
      Value.Real total
    | Min col ->
      let pos = Schema.position schema col in
      List.fold_left
        (fun acc tup ->
          if Value.compare (Tuple.get tup pos) acc < 0 then Tuple.get tup pos
          else acc)
        (Tuple.get first pos) rest
    | Max col ->
      let pos = Schema.position schema col in
      List.fold_left
        (fun acc tup ->
          if Value.compare (Tuple.get tup pos) acc > 0 then Tuple.get tup pos
          else acc)
        (Tuple.get first pos) rest)

(* {1 The group table}

   Group-by is the FILTER step's core operation and routinely counts
   millions of rows.  Every grouping goes through one code-keyed table:
   a row's key codes find (or open) its group, and its measure code is
   folded into the group's accumulator on the spot — [COUNT] touches no
   values at all, [SUM] decodes the measure code (an array read),
   [MIN]/[MAX] compare decoded values only when the codes differ.  The
   key codes live in the table, one stride-[nkeys] run per group in
   first-appearance order, so rows can come from anywhere: a stored
   relation's columns ({!group_codes}) or the evaluator's probe loop,
   which counts a FILTER step's rows as it finds them.

   A group is found through a dense code→gid map when the caller knows a
   single key column has a small code domain (the perfect-hash path),
   else by linear probing over tagged group ids, doubling at half load:
   a slot keeps 24 bits of its key's hash beside the id, so a collision
   rarely costs a look at another group's keys — on a table far larger
   than the cache, that look is the expensive part. *)

type table = {
  func : func;
  nkeys : int;
  dense : int array;  (** single key: code -> gid ([-1]: none), else [[||]] *)
  mutable slots : int array;  (** tagged gids ({!entry}), [-1] empty *)
  mutable keys : int array;  (** group [g]'s key codes at [g * nkeys] *)
  mutable ints : int array;  (** COUNT: the count; MIN/MAX: the best code *)
  mutable sums : float array;  (** SUM *)
  mutable cap : int;  (** groups the arrays hold *)
  mutable ngroups : int;
}

let create ?dense_codes func ~nkeys ~expected =
  let cap = max 16 (expected / 4) in
  let dense =
    match dense_codes with
    | Some maxc when nkeys = 1 -> Array.make (maxc + 1) (-1)
    | _ -> [||]
  in
  {
    func;
    nkeys;
    dense;
    slots =
      (if Array.length dense > 0 then [||]
       else Array.make (Chunkrel.hash_capacity (2 * expected)) (-1));
    keys = Array.make (cap * nkeys) 0;
    ints =
      (match func with
      | Count | Min _ | Max _ -> Array.make cap 0
      | Sum _ -> [||]);
    sums = (match func with Sum _ -> Array.make cap 0. | _ -> [||]);
    cap;
    ngroups = 0;
  }

let table func ~nkeys ~expected = create func ~nkeys ~expected
let groups t = t.ngroups

(* A slot holds a group id in its low [gid_bits] bits and bits 32–55 of
   its key's hash above them (the probe position uses the low bits), so
   a probe compares keys only when the tags agree. *)
let gid_bits = 31
let gid_mask = (1 lsl gid_bits) - 1
let entry hash g = (((hash lsr 32) land 0xFFFFFF) lsl gid_bits) lor g

let hash_group t g =
  let h = ref 17 in
  for k = 0 to t.nkeys - 1 do
    h := Chunkrel.mix !h (Array.unsafe_get t.keys ((g * t.nkeys) + k))
  done;
  !h

let rehash t =
  let slots = Array.make (2 * Array.length t.slots) (-1) in
  let mask = Array.length slots - 1 in
  for g = 0 to t.ngroups - 1 do
    let hash = hash_group t g in
    let i = ref (hash land mask) in
    while Array.unsafe_get slots !i >= 0 do
      i := (!i + 1) land mask
    done;
    Array.unsafe_set slots !i (entry hash g)
  done;
  t.slots <- slots

(* Open group [ngroups] for [probe]'s key codes, doubling the group
   arrays when full. *)
let open_group t probe =
  let g = t.ngroups in
  if g = t.cap then begin
    let cap = 2 * g in
    let grow a fill ~stride =
      if Array.length a = 0 then a
      else begin
        let b = Array.make (cap * stride) fill in
        Array.blit a 0 b 0 (g * stride);
        b
      end
    in
    t.keys <- grow t.keys 0 ~stride:t.nkeys;
    t.ints <- grow t.ints 0 ~stride:1;
    t.sums <- grow t.sums 0. ~stride:1;
    t.cap <- cap
  end;
  for k = 0 to t.nkeys - 1 do
    Array.unsafe_set t.keys ((g * t.nkeys) + k) (Array.unsafe_get probe k)
  done;
  t.ngroups <- g + 1;
  g

let rec same_keys t base probe k =
  k >= t.nkeys
  || Array.unsafe_get t.keys (base + k) = Array.unsafe_get probe k
     && same_keys t base probe (k + 1)

let rec walk t probe hash i =
  let e = Array.unsafe_get t.slots i in
  if e = -1 then begin
    let g = open_group t probe in
    Array.unsafe_set t.slots i (entry hash g);
    if 2 * t.ngroups > Array.length t.slots then rehash t;
    g
  end
  else if
    e lxor entry hash 0 <= gid_mask
    && same_keys t ((e land gid_mask) * t.nkeys) probe 0
  then e land gid_mask
  else walk t probe hash ((i + 1) land (Array.length t.slots - 1))

let find t probe =
  if Array.length t.dense > 0 then begin
    let c = Array.unsafe_get probe 0 in
    let g = t.dense.(c) in
    if g >= 0 then g
    else begin
      let g = open_group t probe in
      t.dense.(c) <- g;
      g
    end
  end
  else begin
    let hash = Chunkrel.hash_codes probe in
    walk t probe hash (hash land (Array.length t.slots - 1))
  end

let add t probe code =
  let fresh = t.ngroups in
  let g = find t probe in
  match t.func with
  | Count -> Array.unsafe_set t.ints g (Array.unsafe_get t.ints g + 1)
  | Sum c ->
    Array.unsafe_set t.sums g
      (Array.unsafe_get t.sums g +. numeric_exn c (Dict.decode code))
  | (Min _ | Max _) as func ->
    let best = Array.unsafe_get t.ints g in
    if g = fresh then Array.unsafe_set t.ints g code
    else if code <> best then begin
      let c = Value.compare (Dict.decode code) (Dict.decode best) in
      if (match func with Min _ -> c < 0 | _ -> c > 0) then
        Array.unsafe_set t.ints g code
    end

let value t g =
  match t.func with
  | Count -> Value.Real (float_of_int t.ints.(g))
  | Sum _ -> Value.Real t.sums.(g)
  | Min _ | Max _ -> Dict.decode t.ints.(g)

let key_code t g k = t.keys.((g * t.nkeys) + k)

let passes ~threshold v =
  match Value.to_float v with Some x -> x >= threshold | None -> false

(* The FILTER's threshold test over one table: the passing groups' key
   codes gathered straight into columns — no group becomes a tuple,
   passing or not.  [slack] lowers a group's threshold by a bound read
   off its key codes. *)
let passing ?slack ~threshold t =
  let kept = Buf.create (t.ngroups / 8) in
  let passes ~threshold g =
    match t.func with
    | Count -> float_of_int t.ints.(g) >= threshold
    | Sum _ -> t.sums.(g) >= threshold
    | Min _ | Max _ -> passes ~threshold (value t g)
  in
  for g = 0 to t.ngroups - 1 do
    let threshold =
      match slack with
      | None -> threshold
      | Some slack ->
        threshold -. slack (Array.sub t.keys (g * t.nkeys) t.nkeys)
    in
    if passes ~threshold g then Buf.push kept g
  done;
  let kept = Buf.to_array kept in
  ( Array.length kept,
    Array.init t.nkeys (fun k -> Array.map (fun g -> key_code t g k) kept) )

(* {1 Grouping a relation}

   The parallel path has two phases over int buffers: scatter row indices
   by key hash into [d] disjoint partitions (every distinct key lands in
   exactly one), then group each partition into a table of its own; no
   cross-domain merge of groups is needed, and each partition's table
   goes to the grouping pass's consumer on its own. *)

let identity_idxs n = Array.init n (fun i -> i)

(* Phase 1 of the parallel path: row indices scattered into [d] disjoint
   partitions by key hash, merged per partition by blit. *)
let partition_rows pool key_cols n =
  let d = Pool.size pool in
  let per_chunk =
    Pool.run_chunks pool ~n (fun ~lo ~hi ->
        let bufs = Array.init d (fun _ -> Buf.create ((hi - lo) / d + 8)) in
        for i = lo to hi - 1 do
          Buf.push bufs.(Chunkrel.hash_key key_cols i mod d) i
        done;
        bufs)
  in
  List.init d (fun j -> Buf.concat (List.map (fun bufs -> bufs.(j)) per_chunk))

(* Row-index partitions of [chunk]: all rows as one on a one-domain
   pool or below the parallel threshold, else {!partition_rows}. *)
let partitions ?pool ?par_threshold (chunk : Chunkrel.t) ~key_cols =
  let n = chunk.Chunkrel.nrows in
  let threshold =
    match par_threshold with Some v -> v | None -> Pool.par_threshold ()
  in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  if Pool.size pool > 1 && n >= threshold then
    Some pool, partition_rows pool key_cols n
  else None, [ identity_idxs n ]

(* The dense path's bound: a single key column whose largest code among
   the rows is at most about twice their number. *)
let dense_codes key_cols idxs =
  let m = Array.length idxs in
  match key_cols with
  | [| col |] when m > 0 ->
    let maxc = ref 0 in
    for k = 0 to m - 1 do
      let c = Array.unsafe_get col (Array.unsafe_get idxs k) in
      if c > !maxc then maxc := c
    done;
    if !maxc <= (2 * m) + 1024 then Some !maxc else None
  | _ -> None

(* One table per partition. *)
let group_codes ?pool ?par_threshold rel ~keys ~func =
  let schema = Relation.schema rel in
  let chunk = Relation.codes rel in
  let column k = chunk.Chunkrel.cols.(Schema.position schema k) in
  let key_cols = Array.of_list (List.map column keys) in
  let nkeys = Array.length key_cols in
  let measure =
    match func with Count -> [||] | Sum c | Min c | Max c -> column c
  in
  let measured = Array.length measure > 0 in
  let pool, parts = partitions ?pool ?par_threshold chunk ~key_cols in
  let job idxs () =
    let m = Array.length idxs in
    let t =
      create ?dense_codes:(dense_codes key_cols idxs) func ~nkeys ~expected:m
    in
    let probe = Array.make nkeys 0 in
    for k = 0 to m - 1 do
      let i = Array.unsafe_get idxs k in
      for c = 0 to nkeys - 1 do
        Array.unsafe_set probe c
          (Array.unsafe_get (Array.unsafe_get key_cols c) i)
      done;
      add t probe (if measured then Array.unsafe_get measure i else 0)
    done;
    t
  in
  match pool with
  | Some pool -> Pool.run_all pool (List.map job parts)
  | None -> List.map (fun idxs -> job idxs ()) parts

(* {1 The grouping pass}

   Every entry point groups through [fold_groups]: it hands each
   partition's table to [consume] while the partition is live and
   returns what [consume] made of them, plus the total group count.  The
   group table holds every distinct key plus its aggregate, so the pass
   charges roughly twice the input; when that does not fit the budget,
   the rows hash-partition by group key into spill runs.  Equal keys
   land in the same run, so each run is grouped and consumed inside its
   own charge, nothing it built outlives it but [consume]'s result, and
   no cross-run merge is ever needed. *)
let fold_groups ?pool ?par_threshold rel ~keys ~func ~consume =
  Governor.check ();
  let ngroups = ref 0 in
  let consume t =
    ngroups := !ngroups + t.ngroups;
    consume t
  in
  let need rel = 2 * Relation.approx_bytes rel in
  let grouping () =
    Spill.governed ~need:(need rel)
      (fun () ->
        List.map consume (group_codes ?pool ?par_threshold rel ~keys ~func))
      (fun g ->
        if Obs.enabled () then Obs.count "governor.spill.groups" 1;
        List.concat
          (Spill.map_partitions g rel ~keys ~need (fun run ->
               List.map consume (group_codes run ~keys ~func))))
  in
  let consumed =
    if not (Obs.enabled ()) then grouping ()
    else
      Obs.with_span "aggregate.group_by"
        ~attrs:[ "rows_in", Obs.Int (Relation.cardinal rel) ]
        (fun () ->
          let consumed = grouping () in
          Obs.set_attr "groups_out" (Obs.Int !ngroups);
          consumed)
  in
  consumed, !ngroups

let group_by ?pool ?par_threshold rel ~keys ~func =
  let decode t =
    List.init t.ngroups (fun g ->
        ( Tuple.of_array
            (Array.init t.nkeys (fun k ->
                 Dict.decode t.keys.((g * t.nkeys) + k))),
          value t g ))
  in
  List.concat
    (fst (fold_groups ?pool ?par_threshold rel ~keys ~func ~consume:decode))

(* FILTER: each partition's passing groups, as one relation over [keys]
   and the candidate count.  The a-priori view of the FILTER is its
   span: [candidates] parameter assignments enter, [survivors] pass the
   threshold; [pruning_ratio] is the surviving fraction, always within
   [0, 1]. *)
let filter ?slack ~rows_in ~keys ~threshold fold =
  let compute () =
    let parts, candidates = fold (passing ?slack ~threshold) in
    let out =
      Relation.of_chunkrel (Schema.of_list keys)
        {
          Chunkrel.nrows = List.fold_left (fun a (n, _) -> a + n) 0 parts;
          cols =
            Array.init (List.length keys) (fun k ->
                Array.concat (List.map (fun (_, cols) -> cols.(k)) parts));
        }
    in
    out, candidates
  in
  if not (Obs.enabled ()) then compute ()
  else
    Obs.with_span "aggregate.group_filter"
      ~attrs:[ "rows_in", Obs.Int rows_in ]
      (fun () ->
        let out, candidates = compute () in
        let survivors = Relation.cardinal out in
        Obs.set_attr "candidates" (Obs.Int candidates);
        Obs.set_attr "survivors" (Obs.Int survivors);
        Obs.set_attr "pruning_ratio"
          (Obs.Float
             (if candidates = 0 then 1.
              else float_of_int survivors /. float_of_int candidates));
        out, candidates)

let group_filter_report ?pool ?par_threshold ?slack rel ~keys ~func
    ~threshold =
  filter ?slack ~rows_in:(Relation.cardinal rel) ~keys ~threshold
    (fun consume -> fold_groups ?pool ?par_threshold rel ~keys ~func ~consume)

let filter_table ?slack t ~rows_in ~keys ~threshold =
  filter ?slack ~rows_in ~keys ~threshold (fun consume ->
      [ consume t ], t.ngroups)

let group_filter ?pool ?par_threshold rel ~keys ~func ~threshold =
  fst (group_filter_report ?pool ?par_threshold rel ~keys ~func ~threshold)
