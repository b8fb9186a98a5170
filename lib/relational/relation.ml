module Pool = Qf_exec_pool.Pool

(* A relation is a schema over one tuple set held in up to two forms:

   - [table]: a hash set of {!Tuple.t}s, the store behind insertion and
     O(1) membership ([add], [mem], [equal]);
   - [chunk]: the columnar snapshot — a {!Chunkrel.t} of
     dictionary-encoded code columns, tagged with the relation [version]
     it snapshots — which every kernel reads.

   At least one form is always present.  [codes] and [ensure_table]
   build the missing one lazily; kernels construct chunk-only relations
   through [of_chunkrel] and never build the table unless someone
   inserts or tests membership.  Mutation ([add]) goes through the table
   and bumps [version], staling any cached chunk. *)

type t = {
  id : int;
  schema : Schema.t;
  mutable table : unit Tuple.Table.t option;
  mutable chunk : Chunkrel.t option;
  mutable chunk_version : int;
  mutable card : int;
  mutable version : int;
}

(* Identity for the catalog's index cache: ids are process-unique, and
   [version] bumps on every successful insertion, so (id, version) names
   one immutable snapshot of the tuple set. *)
let next_id = Atomic.make 0

let create schema =
  {
    id = Atomic.fetch_and_add next_id 1;
    schema;
    table = Some (Tuple.Table.create 64);
    chunk = None;
    chunk_version = 0;
    card = 0;
    version = 0;
  }

(* Internal constructor for kernel outputs whose rows are known distinct
   (filtered subsets, deduplicated projections, group keys). *)
let of_chunkrel schema (chunk : Chunkrel.t) =
  if Array.length chunk.Chunkrel.cols <> Schema.arity schema then
    invalid_arg "Relation.of_chunkrel: arity mismatch";
  {
    id = Atomic.fetch_and_add next_id 1;
    schema;
    table = None;
    chunk = Some chunk;
    chunk_version = 0;
    card = chunk.Chunkrel.nrows;
    version = 0;
  }

let id t = t.id
let version t = t.version
let schema t = t.schema
let arity t = Schema.arity t.schema
let cardinal t = t.card
let is_empty t = cardinal t = 0

let ensure_table t =
  match t.table with
  | Some tb -> tb
  | None ->
    let chunk = Option.get t.chunk in
    let tb = Tuple.Table.create (max 64 chunk.Chunkrel.nrows) in
    Array.iter (fun tup -> Tuple.Table.add tb tup ()) (Chunkrel.rows chunk);
    t.table <- Some tb;
    tb

(* The columnar snapshot of the current version, built from the tuple
   table on demand and cached until the next mutation. *)
let codes t =
  match t.chunk with
  | Some chunk when t.chunk_version = t.version -> chunk
  | _ ->
    let tb = ensure_table t in
    let n = Tuple.Table.length tb in
    let tuples = Array.make n (Tuple.of_array [||]) in
    let i = ref 0 in
    Tuple.Table.iter
      (fun tup () ->
        tuples.(!i) <- tup;
        incr i)
      tb;
    let chunk = Chunkrel.of_tuples ~arity:(arity t) tuples in
    t.chunk <- Some chunk;
    t.chunk_version <- t.version;
    chunk

let prepare t = ignore (codes t)

let add t tup =
  if Tuple.arity tup <> arity t then
    invalid_arg
      (Printf.sprintf "Relation.add: arity mismatch (%d vs %d)"
         (Tuple.arity tup) (arity t));
  let tb = ensure_table t in
  if not (Tuple.Table.mem tb tup) then begin
    Tuple.Table.add tb tup ();
    t.card <- t.card + 1;
    t.version <- t.version + 1
  end

let mem t tup = Tuple.Table.mem (ensure_table t) tup

let iter f t =
  match t.table with
  | Some tb -> Tuple.Table.iter (fun tup () -> f tup) tb
  | None -> Array.iter f (Chunkrel.rows (Option.get t.chunk))

let fold f t init =
  match t.table with
  | Some tb -> Tuple.Table.fold (fun tup () acc -> f tup acc) tb init
  | None ->
    Array.fold_left
      (fun acc tup -> f tup acc)
      init
      (Chunkrel.rows (Option.get t.chunk))

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
   the output columns once.  Runs sequentially below [Pool.par_threshold]
   or on a pool of size 1, and produces the same result set either
   way. *)

let use_pool pool n threshold =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  if Pool.size pool > 1 && n >= threshold then Some pool else None

let threshold_of = function
  | Some v -> v
  | None -> Pool.par_threshold ()

(* Merge per-chunk index buffers into one pre-sized array. *)
let merge_index_chunks chunks =
  let total = List.fold_left (fun a c -> a + Chunkrel.Buf.length c) 0 chunks in
  let dst = Array.make total 0 in
  let pos = ref 0 in
  List.iter (fun c -> pos := Chunkrel.Buf.blit_into c dst !pos) chunks;
  dst

(* Parallel columnar dedup: scatter row indices into [d] partitions by
   row hash (phase 1, chunked), then dedup each partition independently
   (distinct rows land in exactly one partition). *)
let distinct_rows_par pool pcols n =
  let d = Pool.size pool in
  let buckets_per_chunk =
    Pool.run_chunks pool ~n (fun ~lo ~hi ->
        let bufs =
          Array.init d (fun _ -> Chunkrel.Buf.create ((hi - lo) / d + 8))
        in
        for i = lo to hi - 1 do
          Chunkrel.Buf.push bufs.(Chunkrel.hash_key pcols i mod d) i
        done;
        bufs)
  in
  let kept_per_partition =
    Pool.run_all pool
      (List.init d (fun j () ->
           let candidates =
             merge_index_chunks
               (List.map (fun bufs -> bufs.(j)) buckets_per_chunk)
           in
           (* Dedup among the candidate indices with open addressing. *)
           let m = Array.length candidates in
           let cap = Chunkrel.hash_capacity (2 * m) in
           let mask = cap - 1 in
           let slots = Array.make cap (-1) in
           let buf = Chunkrel.Buf.create m in
           let ncols = Array.length pcols in
           let rows_equal i j =
             let rec loop c =
               c >= ncols
               || pcols.(c).(i) = pcols.(c).(j) && loop (c + 1)
             in
             loop 0
           in
           for k = 0 to m - 1 do
             let i = candidates.(k) in
             let h = ref (Chunkrel.hash_key pcols i land mask) in
             let stop = ref false in
             while not !stop do
               let j = slots.(!h) in
               if j = -1 then begin
                 slots.(!h) <- i;
                 Chunkrel.Buf.push buf i;
                 stop := true
               end
               else if rows_equal i j then stop := true
               else h := (!h + 1) land mask
             done
           done;
           buf))
  in
  merge_index_chunks kept_per_partition

let project ?pool ?par_threshold t cols =
  let positions = Array.of_list (List.map (Schema.position t.schema) cols) in
  let chunk = codes t in
  let n = chunk.Chunkrel.nrows in
  let pcols = Array.map (fun p -> chunk.Chunkrel.cols.(p)) positions in
  let kept =
    match use_pool pool n (threshold_of par_threshold) with
    | None -> Chunkrel.distinct_rows pcols n
    | Some pool -> distinct_rows_par pool pcols n
  in
  of_chunkrel
    (Schema.restrict t.schema cols)
    {
      Chunkrel.nrows = Array.length kept;
      cols = Chunkrel.gather_cols pcols kept;
      rows_cache = None;
    }

(* Distinct codes of the column, decoded once each. *)
let column_values t col =
  let chunk = codes t in
  let col = chunk.Chunkrel.cols.(Schema.position t.schema col) in
  let kept = Chunkrel.distinct_rows [| col |] chunk.Chunkrel.nrows in
  Array.fold_left (fun acc i -> Dict.decode col.(i) :: acc) [] kept

(* Budget accounting for the catalog's LRU caches.  Deliberately a
   function of (cardinal, arity) only — never of which forms happen to be
   materialized — so cache eviction order, and therefore the memo.evict
   counters, do not depend on which kernels touched the relation. *)
let approx_bytes t = (16 * (arity t + 2) * cardinal t) + 256

let equal a b =
  arity a = arity b
  && cardinal a = cardinal b
  && fold (fun tup ok -> ok && mem b tup) a true

let pp ppf t =
  Format.fprintf ppf "@[<v>%a: %d tuples@,%a@]" Schema.pp t.schema (cardinal t)
    (Format.pp_print_list Tuple.pp)
    (to_sorted_list t)
