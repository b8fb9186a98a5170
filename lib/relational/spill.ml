(* Spill runs: temp heap files backing the grouping pass's partitioned
   fallback.  A run lives in its governor's private spill directory, so
   every exit path of [Governor.with_ctx] removes it even if the pass
   never got to; [discard] deletes a run as soon as it is read back, and
   again on every exit of [map_partitions] (nothing more is written: the
   data is about to be deleted, and a cleanup path must not fail on a
   simulated write error). *)

module Governor = Qf_governor.Governor
module Fault = Qf_governor.Fault

type run = { file : Heap_file.t; path : string }

let create g schema =
  let path = Governor.fresh_spill_path g in
  Fault.point "spill.create";
  { file = Heap_file.create path schema; path }

let discard r =
  Heap_file.discard r.file;
  try Sys.remove r.path with Sys_error _ -> ()

let budgeted () =
  match Governor.current () with
  | Some g when Governor.budget g < max_int -> Some g
  | _ -> None

(* The budget gate: reserve [need] bytes around the in-memory path, or
   hand control to the spill path when the reservation fails.
   Ungoverned (or unbounded-budget) runs take the in-memory path with no
   accounting at all. *)
let governed ~need in_memory spill =
  match budgeted () with
  | Some g ->
    if Governor.try_charge g need then
      Fun.protect ~finally:(fun () -> Governor.release g need) in_memory
    else spill g
  | None -> in_memory ()

(* Runs are sized so one run's working set targets about a quarter of the
   budget, clamped to [2, 256] runs.  Every row is routed by the hash of
   its key codes, so equal keys land in the same run; runs are then read
   back and handed to [f] one at a time, each under its own charge.

   A run holds code records: rows go to disk and back as the dictionary
   codes they already are, never as values.  Codes are process-local,
   which is sound because a run never outlives the [Governor.with_ctx]
   that owns its directory.  A run's rows are a part of a set, so they
   are distinct, and come back as a relation with no deduplication.

   The route re-mixes the key hash before taking it modulo [parts]: the
   group table probes by the low bits of that same hash, and a bare
   [h mod parts] would fix them within a run (with an even [parts], the
   lowest), leaving the table part of its slots.

   Hashing can still route more than a run's share to one run.  A run
   whose charge does not fit what is left of the budget is partitioned
   again with a different re-mix, up to [max_depth] levels down; a run
   that still does not fit (one key's rows alone can outgrow the budget)
   raises [Over_budget] from its charge. *)
let max_depth = 3

let rec map_partitions_at ~depth g rel ~keys ~need f =
  let schema = Relation.schema rel in
  let chunk = Relation.codes rel in
  let cols = chunk.Chunkrel.cols in
  let key_cols =
    Array.of_list (List.map (fun k -> cols.(Schema.position schema k)) keys)
  in
  let parts = max 2 (min 256 ((4 * need rel / max 1 (Governor.budget g)) + 1)) in
  let created = ref [] in
  Fun.protect ~finally:(fun () -> List.iter discard !created) @@ fun () ->
  let runs =
    Array.init parts (fun _ ->
        let r = create g schema in
        created := r :: !created;
        r)
  in
  for i = 0 to chunk.Chunkrel.nrows - 1 do
    let h =
      Chunkrel.mix (Chunkrel.hash_key key_cols i) (0x9E3779B9 + depth) lsr 7
    in
    Heap_file.append_codes runs.(h mod parts).file cols i
  done;
  Governor.note_spill g ~partitions:parts
    ~bytes:(Array.fold_left (fun a r -> a + Heap_file.body_bytes r.file) 0 runs)
    ~rows:chunk.Chunkrel.nrows;
  List.concat_map
    (fun r ->
      Governor.check ();
      let chunk = Heap_file.to_chunk r.file in
      discard r;
      let run = Relation.of_chunkrel schema chunk in
      let cost = need run in
      if
        depth < max_depth
        && Relation.cardinal run > 1
        && cost > Governor.budget g - Governor.used g
      then map_partitions_at ~depth:(depth + 1) g run ~keys ~need f
      else begin
        Governor.charge g cost;
        Fun.protect ~finally:(fun () -> Governor.release g cost) @@ fun () ->
        [ f run ]
      end)
    (Array.to_list runs)

let map_partitions g rel ~keys ~need f =
  map_partitions_at ~depth:0 g rel ~keys ~need f
