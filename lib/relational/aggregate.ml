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

let numeric_exn context v =
  match Value.to_float v with
  | Some f -> f
  | None ->
    invalid_arg
      (Printf.sprintf "Aggregate.%s: non-numeric value %s" context
         (Value.to_string v))

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
          (fun acc tup -> acc +. numeric_exn "sum" (Tuple.get tup pos))
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

(* {1 Grouping}

   Group-by is the FILTER step's core operation and routinely runs over
   millions of tabulated rows.  Rows are grouped by their key *codes*: a
   group id per distinct key row, assigned through either a dense
   code→gid map (single key column with a small code domain — the
   perfect-hash path) or open addressing over representative rows.
   Aggregates then accumulate into per-gid arrays in one vectorized pass;
   [SUM]/[MIN]/[MAX] decode the measure column's codes on the fly (an
   array read per row), [COUNT] touches no values at all.

   The parallel path has two phases over int buffers: scatter row indices
   by key hash into [d] disjoint partitions (every distinct key lands in
   exactly one), then group and aggregate each partition independently;
   no cross-domain merge of groups is needed, and each partition's groups
   go to the grouping pass's consumer on their own. *)

(* Group the rows listed in [idxs]; returns [rep] (one representative row
   per group, in first-appearance order) and [gid] (parallel to [idxs]). *)
let group_rows key_cols idxs =
  let m = Array.length idxs in
  let gid = Array.make m 0 in
  let dense_path () =
    match key_cols with
    | [| col |] when m > 0 ->
      let maxc = ref 0 in
      for k = 0 to m - 1 do
        let c = Array.unsafe_get col (Array.unsafe_get idxs k) in
        if c > !maxc then maxc := c
      done;
      if !maxc <= (2 * m) + 1024 then Some !maxc else None
    | _ -> None
  in
  match dense_path () with
  | Some maxc ->
    let col = key_cols.(0) in
    let map = Array.make (maxc + 1) (-1) in
    let rep = Buf.create (m / 4) in
    for k = 0 to m - 1 do
      let i = Array.unsafe_get idxs k in
      let c = Array.unsafe_get col i in
      let g = Array.unsafe_get map c in
      if g >= 0 then Array.unsafe_set gid k g
      else begin
        let g = Buf.length rep in
        Array.unsafe_set map c g;
        Buf.push rep i;
        Array.unsafe_set gid k g
      end
    done;
    Buf.to_array rep, gid
  | None ->
    let cap = Chunkrel.hash_capacity (2 * m) in
    let mask = cap - 1 in
    let slots = Array.make cap (-1) in
    let rep = Buf.create (m / 4 + 8) in
    let nk = Array.length key_cols in
    let keys_equal i j =
      let rec loop k =
        k >= nk
        || Array.unsafe_get (Array.unsafe_get key_cols k) i
           = Array.unsafe_get (Array.unsafe_get key_cols k) j
           && loop (k + 1)
      in
      loop 0
    in
    for k = 0 to m - 1 do
      let i = Array.unsafe_get idxs k in
      let h = ref (Chunkrel.hash_key key_cols i land mask) in
      let stop = ref false in
      while not !stop do
        let g = Array.unsafe_get slots !h in
        if g = -1 then begin
          let g = Buf.length rep in
          Array.unsafe_set slots !h g;
          Buf.push rep i;
          Array.unsafe_set gid k g;
          stop := true
        end
        else if keys_equal i (Buf.get rep g) then begin
          Array.unsafe_set gid k g;
          stop := true
        end
        else h := (!h + 1) land mask
      done
    done;
    Buf.to_array rep, gid

(* Per-gid aggregate values over the rows in [idxs]. *)
let aggregate_gids (chunk : Chunkrel.t) schema ~func ~rep ~gid ~idxs =
  let ngroups = Array.length rep in
  let m = Array.length idxs in
  match func with
  | Count ->
    let counts = Array.make ngroups 0 in
    for k = 0 to m - 1 do
      let g = Array.unsafe_get gid k in
      Array.unsafe_set counts g (Array.unsafe_get counts g + 1)
    done;
    Array.map (fun c -> Value.Real (float_of_int c)) counts
  | Sum col ->
    let vcol = chunk.Chunkrel.cols.(Schema.position schema col) in
    let sums = Array.make ngroups 0. in
    for k = 0 to m - 1 do
      let i = Array.unsafe_get idxs k in
      let v = numeric_exn "sum" (Dict.decode (Array.unsafe_get vcol i)) in
      let g = Array.unsafe_get gid k in
      Array.unsafe_set sums g (Array.unsafe_get sums g +. v)
    done;
    Array.map (fun s -> Value.Real s) sums
  | Min col | Max col ->
    let vcol = chunk.Chunkrel.cols.(Schema.position schema col) in
    let want = match func with Min _ -> -1 | _ -> 1 in
    let best = Array.make ngroups (-1) in
    for k = 0 to m - 1 do
      let i = Array.unsafe_get idxs k in
      let g = Array.unsafe_get gid k in
      let b = Array.unsafe_get best g in
      if b = -1 then Array.unsafe_set best g i
      else begin
        let ci = Array.unsafe_get vcol i and cb = Array.unsafe_get vcol b in
        if ci <> cb then begin
          let c = Value.compare (Dict.decode ci) (Dict.decode cb) in
          if (want < 0 && c < 0) || (want > 0 && c > 0) then
            Array.unsafe_set best g i
        end
      end
    done;
    Array.map (fun i -> Dict.decode vcol.(i)) best

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

(* One partition's groups, still as codes: [rep.(g)] is group [g]'s
   representative row in [key_cols], [aggs.(g)] its aggregate value. *)
type groups = { key_cols : int array array; rep : int array; aggs : Value.t array }

let group_codes ?pool ?par_threshold rel ~keys ~func =
  let schema = Relation.schema rel in
  let chunk = Relation.codes rel in
  let key_cols =
    Array.of_list
      (List.map (fun k -> chunk.Chunkrel.cols.(Schema.position schema k)) keys)
  in
  let pool, parts = partitions ?pool ?par_threshold chunk ~key_cols in
  let job idxs () =
    let rep, gid = group_rows key_cols idxs in
    { key_cols; rep; aggs = aggregate_gids chunk schema ~func ~rep ~gid ~idxs }
  in
  match pool with
  | Some pool -> Pool.run_all pool (List.map job parts)
  | None -> List.map (fun idxs -> job idxs ()) parts

(* {1 The grouping pass}

   Every entry point groups through [fold_groups]: it hands each
   partition's groups to [consume] while the partition is live and
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
  let consume groups =
    ngroups := !ngroups + Array.length groups.rep;
    consume groups
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
  let decode { key_cols; rep; aggs } =
    List.init (Array.length rep) (fun g ->
        let i = rep.(g) in
        ( Tuple.of_array (Array.map (fun col -> Dict.decode col.(i)) key_cols),
          aggs.(g) ))
  in
  List.concat
    (fst (fold_groups ?pool ?par_threshold rel ~keys ~func ~consume:decode))

let passes ~threshold v =
  match Value.to_float v with Some x -> x >= threshold | None -> false

(* FILTER: each partition's passing groups gather their key codes
   straight into output columns — no group becomes a tuple, passing or
   not. *)
let group_filter_report ?pool ?par_threshold rel ~keys ~func ~threshold =
  let passing { key_cols; rep; aggs } =
    let kept = Buf.create (Array.length rep) in
    Array.iteri
      (fun g i -> if passes ~threshold aggs.(g) then Buf.push kept i)
      rep;
    Buf.length kept, Chunkrel.gather_cols key_cols (Buf.to_array kept)
  in
  let compute () =
    let parts, candidates =
      fold_groups ?pool ?par_threshold rel ~keys ~func ~consume:passing
    in
    let out =
      Relation.of_chunkrel
        (Schema.restrict (Relation.schema rel) keys)
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
    (* The a-priori view of the FILTER: [candidates] parameter assignments
       enter, [survivors] pass the threshold; [pruning_ratio] is the
       surviving fraction, always within [0, 1]. *)
    Obs.with_span "aggregate.group_filter"
      ~attrs:[ "rows_in", Obs.Int (Relation.cardinal rel) ]
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

let group_filter ?pool ?par_threshold rel ~keys ~func ~threshold =
  fst (group_filter_report ?pool ?par_threshold rel ~keys ~func ~threshold)
