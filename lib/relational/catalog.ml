(* {1 Index cache}

   [Index.build] used to run from scratch on every join and FILTER step.
   The cache memoizes built indexes keyed by (relation identity, indexed
   positions) and remembers the relation version each entry was built
   against: a lookup whose stored version no longer matches the live
   relation is a miss and the rebuilt index replaces the stale entry, so
   mutation through {!Relation.add} invalidates soundly and stale entries
   never accumulate per (relation, positions) pair.

   The cache is shared between a catalog and its {!copy}s — keys carry
   the relation's own identity, so sharing across working copies is safe
   and is exactly what lets one plan's FILTER steps, the optimizer's
   candidate probes and the bench's per-support loops reuse each other's
   work.  A small mutex guards the table.

   Residency is bounded by an LRU byte budget ([QF_INDEX_BUDGET],
   default 128 MiB) instead of the old wipe-everything entry cap: a
   mining run over many supports used to either grow without bound or
   lose the whole working set at once.  Evictions are counted
   ([index_cache.evict]). *)

type index_cache = {
  entries : (int * int list, int * Index.t) Lru.t;
  cache_mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

(* {1 Subplan memo}

   Cross-level memoization of FILTER-step outputs, keyed by the step's
   canonical signature (computed in [qf_core]'s [Stepsig]; the catalog
   only sees opaque strings).  The signature embeds each referenced
   relation's (id, version) pair, so mutation invalidates by key change —
   the same version-counter discipline as the index cache — and entries
   for dead versions age out through the LRU budget ([QF_MEMO_BUDGET],
   default 64 MiB; [0] disables memoization). *)

type memo = {
  memo_entries : (string, Relation.t) Lru.t;
  memo_mutex : Mutex.t;
  mutable memo_hits : int;
  mutable memo_misses : int;
}

(* [Governor.budget_of_string] syntax; unset or garbage falls back to
   [default]. *)
let budget_of_env var ~default =
  Option.value ~default
    (Option.bind (Sys.getenv_opt var) Qf_governor.Governor.budget_of_string)

let default_index_budget = 128 * 1024 * 1024
let default_memo_budget = 64 * 1024 * 1024

type t = {
  relations : (string, Relation.t) Hashtbl.t;
  stats_cache : (string, int * int * Statistics.t) Hashtbl.t;
      (* (relation id, relation version, stats) — same version-counter
         discipline as the index cache: an entry computed against an older
         version (or a different relation re-bound under the same name) is
         a miss, so in-place {!Relation.add} mutation can never leak stale
         profiles into the analyzer, even through {!copy}s. *)
  indexes : index_cache;
  memo : memo;
}

let create () =
  {
    relations = Hashtbl.create 16;
    stats_cache = Hashtbl.create 16;
    indexes =
      {
        entries =
          Lru.create
            ~budget:(budget_of_env "QF_INDEX_BUDGET" ~default:default_index_budget);
        cache_mutex = Mutex.create ();
        hits = 0;
        misses = 0;
      };
    memo =
      {
        memo_entries =
          Lru.create
            ~budget:(budget_of_env "QF_MEMO_BUDGET" ~default:default_memo_budget);
        memo_mutex = Mutex.create ();
        memo_hits = 0;
        memo_misses = 0;
      };
  }

let add t name rel =
  Hashtbl.replace t.relations name rel;
  Hashtbl.remove t.stats_cache name

let remove t name =
  Hashtbl.remove t.relations name;
  Hashtbl.remove t.stats_cache name

let find_opt t name = Hashtbl.find_opt t.relations name

let find t name =
  match find_opt t name with
  | Some rel -> rel
  | None -> failwith (Printf.sprintf "Catalog.find: unknown relation %S" name)

let mem t name = Hashtbl.mem t.relations name
let names t = Hashtbl.fold (fun name _ acc -> name :: acc) t.relations []

let stats t name =
  let rel = find t name in
  let id = Relation.id rel and version = Relation.version rel in
  match Hashtbl.find_opt t.stats_cache name with
  | Some (cached_id, cached_version, s)
    when cached_id = id && cached_version = version ->
    s
  | Some _ | None ->
    let s = Statistics.of_relation rel in
    Hashtbl.replace t.stats_cache name (id, version, s);
    s

let index t rel positions =
  let c = t.indexes in
  let key = Relation.id rel, positions in
  let current = Relation.version rel in
  Mutex.lock c.cache_mutex;
  let cached =
    match Lru.find c.entries key with
    | Some (version, idx) when version = current ->
      c.hits <- c.hits + 1;
      Some idx
    | Some _ | None ->
      c.misses <- c.misses + 1;
      None
  in
  Mutex.unlock c.cache_mutex;
  (* Mirror the per-catalog counters into the global metrics so profiled
     runs report cache effectiveness without threading the catalog out. *)
  (if Qf_obs.Obs.enabled () then
     match cached with
     | Some _ -> Qf_obs.Obs.count "index_cache.hits" 1
     | None -> Qf_obs.Obs.count "index_cache.misses" 1);
  match cached with
  | Some idx -> idx
  | None ->
    let idx = Index.build rel positions in
    Mutex.lock c.cache_mutex;
    let evicted =
      Lru.add c.entries key (current, idx) ~bytes:(Index.approx_bytes idx)
    in
    Mutex.unlock c.cache_mutex;
    if evicted > 0 && Qf_obs.Obs.enabled () then
      Qf_obs.Obs.count "index_cache.evict" evicted;
    idx

let index_stats t = t.indexes.hits, t.indexes.misses
let index_evictions t = Lru.evictions t.indexes.entries
let set_index_budget t budget = ignore (Lru.set_budget t.indexes.entries budget)

let reset_index_stats t =
  t.indexes.hits <- 0;
  t.indexes.misses <- 0

(* Per-logical-run attribution: the cache (and its counters) is shared
   across {!copy}s, so "hits of this run" must be computed as a delta
   against a mark taken on the same shared cache — resetting would
   destroy a concurrent run's baseline. *)
let index_stats_mark = index_stats

let index_stats_since t (h0, m0) =
  t.indexes.hits - h0, t.indexes.misses - m0

(* {1 Memo operations} *)

let memo_enabled t = Lru.budget t.memo.memo_entries > 0

let memo_find t key =
  if not (memo_enabled t) then None
  else begin
    let m = t.memo in
    Mutex.lock m.memo_mutex;
    let cached = Lru.find m.memo_entries key in
    (match cached with
    | Some _ -> m.memo_hits <- m.memo_hits + 1
    | None -> m.memo_misses <- m.memo_misses + 1);
    Mutex.unlock m.memo_mutex;
    (if Qf_obs.Obs.enabled () then
       match cached with
       | Some _ -> Qf_obs.Obs.count "memo.hit" 1
       | None -> Qf_obs.Obs.count "memo.miss" 1);
    cached
  end

let memo_add t key rel =
  if memo_enabled t then begin
    let m = t.memo in
    Mutex.lock m.memo_mutex;
    let evicted =
      Lru.add m.memo_entries key rel
        ~bytes:(Relation.approx_bytes rel + String.length key)
    in
    Mutex.unlock m.memo_mutex;
    if evicted > 0 && Qf_obs.Obs.enabled () then
      Qf_obs.Obs.count "memo.evict" evicted
  end

let memo_stats t =
  t.memo.memo_hits, t.memo.memo_misses, Lru.evictions t.memo.memo_entries

let memo_budget t = Lru.budget t.memo.memo_entries
let set_memo_budget t budget = ignore (Lru.set_budget t.memo.memo_entries budget)

let memo_clear t =
  Mutex.lock t.memo.memo_mutex;
  Lru.clear t.memo.memo_entries;
  Mutex.unlock t.memo.memo_mutex

let memo_bytes t = Lru.total_bytes t.memo.memo_entries

let copy t =
  {
    relations = Hashtbl.copy t.relations;
    stats_cache = Hashtbl.copy t.stats_cache;
    indexes = t.indexes;
    memo = t.memo;
  }

let pp ppf t =
  let sorted = List.sort String.compare (names t) in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list (fun ppf name ->
         Format.fprintf ppf "%s%a [%d tuples]" name Schema.pp
           (Relation.schema (find t name))
           (Relation.cardinal (find t name))))
    sorted
