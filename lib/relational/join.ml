module Pool = Qf_exec_pool.Pool
module Obs = Qf_obs.Obs
module Buf = Chunkrel.Buf
module Governor = Qf_governor.Governor

(* Span wrapper shared by the three join kinds: probe/build sizes up
   front, output size on completion.  The disabled path costs one atomic
   load. *)
let observed kind a b compute =
  if not (Obs.enabled ()) then compute ()
  else
    Obs.with_span kind
      ~attrs:
        [
          "probe_rows", Obs.Int (Relation.cardinal a);
          "build_rows", Obs.Int (Relation.cardinal b);
        ]
      (fun () ->
        let out = compute () in
        Obs.set_attr "rows_out" (Obs.Int (Relation.cardinal out));
        out)

(* Join-target positions, hoisted once into [int array]s so the per-tuple
   work is pure array indexing (the old code re-ran the linear
   [Schema.position] scan through intermediate lists). *)
let positions_of_pairs a b pairs =
  let sa = Relation.schema a and sb = Relation.schema b in
  ( Array.of_list (List.map (fun (ca, _) -> Schema.position sa ca) pairs),
    Array.of_list (List.map (fun (_, cb) -> Schema.position sb cb) pairs) )

(* Output columns of [b] that are not join targets, renamed on collision
   with a column of [a] — or with another output column: ["c"] from [b]
   colliding with ["c"] from [a] becomes ["c_2"], and if ["c_2"] is also
   taken (say [b] itself has a ["c_2"] column) the suffix escalates to
   ["c_3"], ["c_4"], ... so the output schema never has duplicates. *)
let residual_columns a b pairs =
  let sa = Relation.schema a and sb = Relation.schema b in
  let joined = Hashtbl.create 8 in
  List.iter (fun (_, cb) -> Hashtbl.replace joined cb ()) pairs;
  let used = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace used c ()) (Schema.columns sa);
  let residual_base =
    List.filter (fun c -> not (Hashtbl.mem joined c)) (Schema.columns sb)
  in
  (* Names any residual keeps verbatim are reserved up front, so an early
     rename cannot steal a later residual's own name. *)
  List.iter
    (fun c -> if not (Hashtbl.mem used c) then Hashtbl.replace used c ())
    residual_base;
  List.map
    (fun c ->
      let out =
        if Schema.mem sa c then begin
          let rec fresh i =
            let candidate = Printf.sprintf "%s_%d" c i in
            if Hashtbl.mem used candidate then fresh (i + 1) else candidate
          in
          let name = fresh 2 in
          Hashtbl.replace used name ();
          name
        end
        else c
      in
      c, out)
    residual_base

(* Probe-side SIP prechecks: [(pos, reducer)] pairs over [a]'s columns.
   A probe row failing a reducer cannot match the build side (the caller
   guarantees each reducer over-approximates [b]'s values at the paired
   column), so it is skipped before the chain walk.  Reducers never
   change the result set — only the work — and emit no counters of their
   own here, so join outputs and metrics stay deterministic. *)
let sip_checks ca sip =
  let checks =
    Array.of_list
      (List.map (fun (p, s) -> ca.Chunkrel.cols.(p), s) sip)
  in
  let n = Array.length checks in
  fun i ->
    let rec loop k =
      k >= n
      ||
      let col, s = Array.unsafe_get checks k in
      Sip.mem s (Array.unsafe_get col i) && loop (k + 1)
    in
    loop 0

let use_pool pool n threshold =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  if Pool.size pool > 1 && n >= threshold then Some pool else None

let threshold_of = function
  | Some v -> v
  | None -> Pool.par_threshold ()

(* {1 Probe machinery}

   Both kinds of probe walk the build side's bucket chains comparing raw
   key codes; no tuple is ever materialized.  Over set-semantics inputs
   the outputs below are automatically duplicate-free:

   - equi output rows are [a]-row ++ residual([b]-row); two matches with
     the same [a] row come from distinct [b] rows agreeing on every join
     column, which therefore differ in some residual column;
   - semi/anti outputs are subsets of [a]'s rows.

   So the merges are bare [Array.blit]s of per-chunk index buffers, with
   no output-side hash set at all. *)

(* Per-probe-row chain walk: calls [emit j] for every matching build row. *)
let probe_chain (ci : Index.t) akey_cols i emit =
  let h = ref 17 in
  let nk = Array.length akey_cols in
  for k = 0 to nk - 1 do
    h := Chunkrel.mix !h (Array.unsafe_get (Array.unsafe_get akey_cols k) i)
  done;
  let j = ref (Array.unsafe_get ci.Index.heads (!h land ci.Index.mask)) in
  while !j >= 0 do
    let bj = !j in
    let rec eq k =
      k >= nk
      || Array.unsafe_get (Array.unsafe_get akey_cols k) i
         = Array.unsafe_get (Array.unsafe_get ci.Index.key_cols k) bj
         && eq (k + 1)
    in
    if eq 0 then emit bj;
    j := Array.unsafe_get ci.Index.next bj
  done

let chain_mem ci akey_cols i =
  let found = ref false in
  (* Cheap early exit is not worth a second walk implementation: chains
     are short under a well-sized radix table. *)
  probe_chain ci akey_cols i (fun _ -> found := true);
  !found

let merge_bufs chunks =
  let total = List.fold_left (fun a c -> a + Buf.length c) 0 chunks in
  let dst = Array.make total 0 in
  let pos = ref 0 in
  List.iter (fun c -> pos := Buf.blit_into c dst !pos) chunks;
  dst

(* {1 Equi-join}

   Build one radix/bucket-chained index on [b]'s key codes, then probe
   with [a]'s key codes.  The parallel path partitions the probe side
   into per-domain chunks, each emitting an interleaved (probe row,
   build row) pair buffer; buffers merge by blit and the output columns
   are gathered once. *)

let equi_in_memory ?pool ?par_threshold ~sip a b pos_a pos_b residual
    out_schema =
  let ca = Relation.codes a in
  let ci = Index.build b (Array.to_list pos_b) in
  let akey_cols = Array.map (fun p -> ca.Chunkrel.cols.(p)) pos_a in
  let sip_pass = sip_checks ca sip in
  let sb = Relation.schema b in
  let residual_pos =
    Array.of_list (List.map (fun (c, _) -> Schema.position sb c) residual)
  in
  let n = ca.Chunkrel.nrows in
  let pairs =
    match use_pool pool n (threshold_of par_threshold) with
    | None ->
      let buf = Buf.create (2 * n) in
      for i = 0 to n - 1 do
        if sip_pass i then
          probe_chain ci akey_cols i (fun j -> Buf.push2 buf i j)
      done;
      Buf.to_array buf
    | Some pool ->
      Pool.run_chunks pool ~n (fun ~lo ~hi ->
          let buf = Buf.create (2 * (hi - lo)) in
          for i = lo to hi - 1 do
            if sip_pass i then
              probe_chain ci akey_cols i (fun j -> Buf.push2 buf i j)
          done;
          buf)
      |> merge_bufs
  in
  let m = Array.length pairs / 2 in
  let pa = Array.init m (fun k -> pairs.(2 * k)) in
  let pb = Array.init m (fun k -> pairs.((2 * k) + 1)) in
  let out_cols =
    Array.append
      (Chunkrel.gather_cols ca.Chunkrel.cols pa)
      (Chunkrel.gather_cols
         (Array.map (fun p -> ci.Index.chunk.Chunkrel.cols.(p)) residual_pos)
         pb)
  in
  Relation.of_chunkrel out_schema
    { Chunkrel.nrows = m; cols = out_cols; rows_cache = None }

(* {1 Grace-style spilling equi-join}

   When the governed budget cannot hold the in-memory build index, both
   sides hash-partition by their join-key into temp heap-file runs
   (equal keys land in the same partition index on both sides), and each
   partition pair joins through [equi_in_memory] under a per-partition
   charge.  Results are identical to the in-memory join: partitions are
   disjoint by key, so their outputs are too.  SIP prechecks are skipped
   here — they only prune probe rows that cannot match, so the output is
   unchanged either way. *)
let spill_equi g a b pos_a pos_b residual out_schema =
  let out = Relation.create out_schema in
  let need = Relation.approx_bytes a + (2 * Relation.approx_bytes b) in
  let parts = Spill.partition_count g ~need in
  let runs_a = Spill.partition_by_key g a ~positions:pos_a ~parts in
  Fun.protect ~finally:(fun () -> Array.iter Spill.discard runs_a)
  @@ fun () ->
  let runs_b = Spill.partition_by_key g b ~positions:pos_b ~parts in
  Fun.protect ~finally:(fun () -> Array.iter Spill.discard runs_b)
  @@ fun () ->
  Spill.note_runs g runs_a;
  Spill.note_runs g runs_b;
  for i = 0 to parts - 1 do
    Governor.check ();
    let pa = Spill.to_relation runs_a.(i) in
    let pb = Spill.to_relation runs_b.(i) in
    let cost = Relation.approx_bytes pa + (2 * Relation.approx_bytes pb) in
    Governor.charge g cost;
    Fun.protect ~finally:(fun () -> Governor.release g cost) @@ fun () ->
    Relation.iter (Relation.add out)
      (equi_in_memory ~sip:[] pa pb pos_a pos_b residual out_schema)
  done;
  out

let equi ?pool ?par_threshold ?(sip = []) a b pairs =
  observed "join.equi" a b @@ fun () ->
  Governor.check ();
  let pos_a, pos_b = positions_of_pairs a b pairs in
  let residual = residual_columns a b pairs in
  let out_schema =
    Schema.of_list (Schema.columns (Relation.schema a) @ List.map snd residual)
  in
  let in_memory () =
    equi_in_memory ?pool ?par_threshold ~sip a b pos_a pos_b residual
      out_schema
  in
  (* The build-side index (plus the probe pairs) is what an in-memory
     equi-join holds beyond its inputs; charge that, spill when it does
     not fit. *)
  Spill.governed
    ~need:(2 * Relation.approx_bytes b)
    in_memory
    (fun g ->
      if Obs.enabled () then Obs.count "governor.spill.joins" 1;
      spill_equi g a b pos_a pos_b residual out_schema)

(* {1 Semi/anti joins} — membership filters over the probe side. *)

let filter_by_presence ?pool ?par_threshold ?(sip = []) ~keep_matching a b
    pairs =
  let pos_a, pos_b = positions_of_pairs a b pairs in
  let ca = Relation.codes a in
  let ci = Index.build b (Array.to_list pos_b) in
  let akey_cols = Array.map (fun p -> ca.Chunkrel.cols.(p)) pos_a in
  let sip_pass = sip_checks ca sip in
  let n = ca.Chunkrel.nrows in
  let kept =
    match use_pool pool n (threshold_of par_threshold) with
    | None ->
      let buf = Buf.create n in
      for i = 0 to n - 1 do
        if sip_pass i && chain_mem ci akey_cols i = keep_matching then
          Buf.push buf i
      done;
      Buf.to_array buf
    | Some pool ->
      Pool.run_chunks pool ~n (fun ~lo ~hi ->
          let buf = Buf.create (hi - lo) in
          for i = lo to hi - 1 do
            if sip_pass i && chain_mem ci akey_cols i = keep_matching then
              Buf.push buf i
          done;
          buf)
      |> merge_bufs
  in
  Relation.of_chunkrel (Relation.schema a) (Chunkrel.gather ca kept)

let semi ?pool ?par_threshold ?sip a b pairs =
  observed "join.semi" a b @@ fun () ->
  Governor.check ();
  filter_by_presence ?pool ?par_threshold ?sip ~keep_matching:true a b pairs

let anti ?pool ?par_threshold a b pairs =
  observed "join.anti" a b @@ fun () ->
  Governor.check ();
  filter_by_presence ?pool ?par_threshold ~keep_matching:false a b pairs
