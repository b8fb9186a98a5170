module Pool = Qf_exec_pool.Pool

type t = {
  heads : int array;
  next : int array;
  mask : int;
  key_cols : int array array;
  chunk : Chunkrel.t;
}

(* The bucket array is the radix table: a row's key hash, masked to the
   table size, names its partition; rows sharing a partition chain
   through [next].  Build is one pass and allocation-free beyond the two
   arrays.  Above the parallel threshold the key hashes are precomputed
   in parallel (disjoint writes per chunk); the chaining pass itself is
   sequential and memory-bound.  Tiny build sides skip the partitioned
   hash pass entirely.  The index holds the snapshot it was built
   against, so it keeps describing the same tuple set even if the source
   relation mutates later. *)

let build rel positions =
  let chunk = Relation.codes rel in
  let n = chunk.Chunkrel.nrows in
  let key_cols =
    Array.of_list (List.map (fun p -> chunk.Chunkrel.cols.(p)) positions)
  in
  let cap = Chunkrel.hash_capacity n in
  let mask = cap - 1 in
  let heads = Array.make cap (-1) in
  let next = Array.make (max 1 n) (-1) in
  let pool = Pool.default () in
  if Pool.size pool > 1 && n >= Pool.par_threshold () then begin
    let hashes = Array.make n 0 in
    ignore
      (Pool.run_chunks pool ~n (fun ~lo ~hi ->
           for i = lo to hi - 1 do
             hashes.(i) <- Chunkrel.hash_key key_cols i
           done));
    for i = 0 to n - 1 do
      let b = hashes.(i) land mask in
      next.(i) <- heads.(b);
      heads.(b) <- i
    done
  end
  else
    for i = 0 to n - 1 do
      let b = Chunkrel.hash_key key_cols i land mask in
      next.(i) <- heads.(b);
      heads.(b) <- i
    done;
  { heads; next; mask; key_cols; chunk }

let approx_bytes t =
  (16 * (Array.length t.key_cols + 2) * t.chunk.Chunkrel.nrows) + 256
