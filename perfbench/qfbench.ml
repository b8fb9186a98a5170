(* qfbench: the in-process harness of the end-to-end benchmark.

   It runs the [flockc mine --mode plan] pipeline as a closed loop (one
   client, one query at a time):

     Csv.load -> Parse.program -> Views.materialize -> Optimizer.enumerate
       -> Plan_exec.run_with_report -> Csv.to_string

   and times every call into those public functions from outside.  The
   engine is not changed: per-layer attribution comes from the spans the
   harness opens around each call plus the spans and counters the engine
   already emits through Qf_obs.

   Subcommands (perfbench/run.py drives them, one process each):

     qfbench.exe gen    WORKLOAD SEED DIR      write the workload's CSVs
     qfbench.exe oracle WORKLOAD DIR           write the expected answers
     qfbench.exe setup  WORKLOAD DIR           time one set-up, print it
     qfbench.exe run    WORKLOAD DIR SECONDS TRACE

   [run] prints one JSON object on its last line: [correct], [attempted],
   [failed] and the metrics of the untraced (TRACE = 0) or traced
   (TRACE = 1) run.  It exits 2 when a query fails (a wrong answer, an
   exception or a typed Governor error) and 3 when the run breaks the
   property its workload exists to show. *)

module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
module Csv = Qf_relational.Csv
module Dict = Qf_relational.Dict
module Schema = Qf_relational.Schema
module Statistics = Qf_relational.Statistics
module Obs = Qf_obs.Obs
module Pool = Qf_exec_pool.Pool
module Governor = Qf_governor.Governor
module Market = Qf_workload.Market
module Medical = Qf_workload.Medical
open Qf_core

let now = Unix.gettimeofday

let die code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("qfbench: " ^ msg);
      exit code)
    fmt

(* {1 Workloads} *)

type workload = Market_mine | Medical_mine | Market_session | Market_spill

let workload_names =
  [
    "market-mine", Market_mine;
    "medical-mine", Medical_mine;
    "market-session", Market_session;
    "market-spill", Market_spill;
  ]

let workload_of_string s =
  match List.assoc_opt s workload_names with
  | Some w -> w
  | None -> die 1 "unknown workload %S" s

let string_of_workload w =
  fst (List.find (fun (_, w') -> w' = w) workload_names)

let n_baskets = 3_000

let market_config seed =
  {
    Market.n_baskets;
    n_items = 800;
    avg_basket_size = 6;
    zipf_exponent = 0.9;
    seed;
  }

let medical_config seed =
  {
    Medical.default with
    n_patients = 2_500;
    diseases_per_patient = 2;
    seed;
  }

let tables = function
  | Medical_mine -> [ "diagnoses"; "exhibits"; "treatments"; "causes" ]
  | Market_mine | Market_session | Market_spill -> [ "baskets" ]

let csv_path dir table = Filename.concat dir (table ^ ".csv")

let generate w seed dir =
  let catalog =
    match w with
    | Medical_mine -> (Medical.generate (medical_config seed)).Medical.catalog
    | Market_mine | Market_session | Market_spill ->
      Market.catalog (market_config seed)
  in
  List.iter
    (fun t -> Csv.save (csv_path dir t) (Catalog.find catalog t))
    (tables w)

(* {2 Queries} *)

type query =
  | Flock of string  (** a [.flock] program, parsed on every execution *)
  | Maximal of int  (** [flockc maximal]: the flock sequence at a support *)

(* The Fig. 1/2 basket flock for k-item sets, as [.flock] text. *)
let basket_text ~k ~support =
  let atoms = List.init k (fun i -> Printf.sprintf "baskets(B,$%d)" (i + 1)) in
  let order =
    List.init (k - 1) (fun i -> Printf.sprintf "$%d < $%d" (i + 1) (i + 2))
  in
  Printf.sprintf "QUERY:\nanswer(B) :-\n    %s\n\nFILTER:\nCOUNT(answer.B) >= %d\n"
    (String.concat " AND\n    " (atoms @ order))
    support

(* The shapes of data/side_effects.flock and data/multi_disease.flock. *)
let side_effects_text support =
  Printf.sprintf
    "QUERY:\n\
     answer(P) :-\n\
    \    exhibits(P,$s) AND\n\
    \    treatments(P,$m) AND\n\
    \    diagnoses(P,D) AND\n\
    \    NOT causes(D,$s)\n\n\
     FILTER:\n\
     COUNT(answer.P) >= %d\n"
    support

let multi_disease_text support =
  Printf.sprintf
    "VIEWS:\n\
     explained(P,S) :-\n\
    \    diagnoses(P,D) AND\n\
    \    causes(D,S)\n\n\
     QUERY:\n\
     answer(P) :-\n\
    \    exhibits(P,$s) AND\n\
    \    treatments(P,$m) AND\n\
    \    NOT explained(P,$s)\n\n\
     FILTER:\n\
     COUNT(answer.P) >= %d\n"
    support

(* Supports are fractions of the basket count, so every seed sees the same
   query shapes. *)
let basket_support per_mille = n_baskets * per_mille / 1000

let market_queries =
  List.map
    (fun (k, pm) -> Flock (basket_text ~k ~support:(basket_support pm)))
    [ 2, 20; 2, 12; 2, 8; 3, 12; 3, 8 ]

let queries = function
  | Market_mine | Market_spill -> market_queries
  | Medical_mine ->
    List.map (fun s -> Flock (side_effects_text s)) [ 40; 25; 15 ]
    @ List.map (fun s -> Flock (multi_disease_text s)) [ 30; 15 ]
  | Market_session ->
    (* One analyst's session: ask for pairs and then triples at the same
       support, revisit supports, and sweep the maximal sets.  Sorted by
       cost the pass is 2 pairs, 5 triples and 2 sweeps, so the median
       lies in the middle of the triples' latencies and the 90th
       percentile in the sweeps'.  Both sweeps are at one support: two
       sweeps of different cost would put the 90th percentile on the
       boundary between them. *)
    let pairs pm = Flock (basket_text ~k:2 ~support:(basket_support pm)) in
    let triples pm = Flock (basket_text ~k:3 ~support:(basket_support pm)) in
    let sweep = Maximal (basket_support 12) in
    [
      pairs 12; triples 12; pairs 8; triples 8; triples 12;
      sweep; triples 8; triples 20; sweep;
    ]

let query_key = function Flock t -> t | Maximal s -> Printf.sprintf "maximal %d" s

(* The spill budget: far below the group-by working set of every market
   query, so Aggregate partitions to disk on every query.  (Plan steps
   evaluate bodies by Eval binding extension, so Join's spill path does not
   run here.) *)
let spill_budget = 2 * 1024 * 1024

(* {1 The reference kernel} *)

(* The machine this runs on is shared, and its speed swings with other
   tenants' load: the same fixed work takes from 1x to 2.5x as long from one
   second to the next, in CPU time as well as in wall time.  So every time
   a run reports is scaled to a reference speed.  The harness times a fixed
   kernel of its own before every query of the timed loop; with [r] the
   kernel's median time over the loop, a time of [t] seconds is reported as
   [t *. reference_s /. r].  The kernel is part of this file, not of the
   engine, so a change to the engine moves the scaled times and not the
   kernel.  It does random read-modify-writes over a table that fits in the
   L1 cache, so the cache footprint of the query before it does not move
   it, and it allocates nothing, so GC settings do not move it either. *)

(* About the kernel's time on an idle core of the machine the benchmark was
   tuned on (a shared 2-core x86-64 virtual machine): the unit the scaled
   times are reported in. *)
let reference_s = 0.001

let reference_table = Array.make 1024 0 (* 8 KiB *)

let reference_steps = 350_000

let reference_work () =
  let a = reference_table in
  let mask = Array.length a - 1 in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to reference_steps do
    x := (!x * 1103515245 + 12345) land 0x3fffffff;
    let j = (!x lsr 4) land mask in
    acc := !acc + a.(j) + (!x land 0xff);
    a.(j) <- !acc land 0xffff
  done;
  !acc

(* The kernel's wall time, once. *)
let time_reference () =
  let t = now () in
  ignore (Sys.opaque_identity (reference_work ()));
  now () -. t

(* {1 Set-up} *)

type setup = {
  catalog : Catalog.t;
  load_s : float;  (** Csv.load + Relation.prepare + Catalog.add *)
  stats_s : float;  (** Catalog.stats + Statistics.column_profile *)
  pool_s : float;  (** default pool creation + par_threshold calibration *)
  total_s : float;
  rows : int;
  bytes : int;
}

let file_size path = (Unix.stat path).Unix.st_size

let setup w dir =
  let t0 = now () in
  let catalog = Catalog.create () in
  let rows = ref 0 and bytes = ref 0 in
  List.iter
    (fun t ->
      let path = csv_path dir t in
      let rel = Csv.load path in
      Relation.prepare rel;
      Catalog.add catalog t rel;
      rows := !rows + Relation.cardinal rel;
      bytes := !bytes + file_size path)
    (tables w);
  let t1 = now () in
  List.iter
    (fun t ->
      let stats = Catalog.stats catalog t in
      List.iter
        (fun c -> ignore (Statistics.column_profile stats c))
        (Schema.columns (Relation.schema (Catalog.find catalog t))))
    (tables w);
  let t2 = now () in
  ignore (Pool.default ());
  ignore (Pool.par_threshold ());
  let t3 = now () in
  {
    catalog;
    load_s = t1 -. t0;
    stats_s = t2 -. t1;
    pool_s = t3 -. t2;
    total_s = t3 -. t0;
    rows = !rows;
    bytes = !bytes;
  }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* One set-up in a fresh child process ([qfbench.exe setup]): the value
   dictionary and the pool are process-global, so only a new process pays
   for them again.  The parent waits for the child. *)
let setup_in_child w dir =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "setup"; string_of_workload w; dir |] in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> float_of_string (String.trim out)
  | _ -> die 1 "set-up child process failed"

(* {1 One query through the pipeline} *)

type answer = Rel of Relation.t | Levels of Sequence.level list

type outcome = {
  answer : answer;
  steps : Plan_exec.step_report list;
  plans_costed : int;
  view_rows : int;
  negations : int;  (** negated subgoals evaluated (the anti-joins) *)
  output_rows : int;
  spill_partitions : int;
}

let span name f = Obs.with_span name f

let or_fail = function Ok v -> v | Error e -> failwith e

let view_heads (views : Qf_datalog.Ast.rule list) =
  List.sort_uniq String.compare
    (List.map (fun (r : Qf_datalog.Ast.rule) -> r.head.pred) views)

let negations (p : Parse.program) =
  List.fold_left
    (fun acc (r : Qf_datalog.Ast.rule) ->
      acc
      + List.length
          (List.filter
             (function Qf_datalog.Ast.Neg _ -> true | _ -> false)
             r.Qf_datalog.Ast.body))
    0
    (p.Parse.views @ p.Parse.flock.Flock.query)

let run_flock catalog text =
  let program = span "bench.parse" (fun () -> or_fail (Parse.program text)) in
  let catalog, view_rows =
    if program.Parse.views = [] then catalog, 0
    else
      span "bench.views" (fun () ->
          let c = or_fail (Views.materialize catalog program.Parse.views) in
          ( c,
            List.fold_left
              (fun acc h -> acc + Relation.cardinal (Catalog.find c h))
              0 (view_heads program.Parse.views) ))
  in
  let choices =
    span "bench.optimizer" (fun () -> Optimizer.enumerate catalog program.Parse.flock)
  in
  let best = List.hd choices in
  let report =
    span "bench.plan_exec" (fun () ->
        Plan_exec.run_with_report catalog best.Optimizer.plan)
  in
  let csv = span "bench.output" (fun () -> Csv.to_string report.Plan_exec.result) in
  ignore (Sys.opaque_identity csv);
  {
    answer = Rel report.Plan_exec.result;
    steps = report.Plan_exec.steps;
    plans_costed = List.length choices;
    view_rows;
    negations = negations program;
    output_rows = Relation.cardinal report.Plan_exec.result;
    spill_partitions = 0;
  }

let max_level = 3

let run_maximal catalog support =
  let levels =
    span "bench.plan_exec" (fun () ->
        Sequence.frequent_levels ~max_k:max_level catalog ~pred:"baskets" ~support)
  in
  let maximal = span "bench.output" (fun () -> Sequence.maximal levels) in
  {
    answer = Levels levels;
    steps = [];
    plans_costed = 0;
    view_rows = 0;
    negations = 0;
    output_rows = List.length maximal;
    spill_partitions = 0;
  }

let execute w catalog q =
  let go () =
    match q with
    | Flock text -> run_flock catalog text
    | Maximal support -> run_maximal catalog support
  in
  match w with
  | Market_spill ->
    let g = Governor.create ~mem_budget:spill_budget () in
    let o = Governor.with_ctx g go in
    { o with spill_partitions = (Governor.stats g).Governor.spill_partitions }
  | Market_mine | Medical_mine | Market_session -> go ()

(* No memo or index-cache state carries from one query to the next on the
   workloads that model independent [flockc mine] invocations. *)
let isolated = function
  | Market_mine | Medical_mine | Market_spill -> true
  | Market_session -> false

let index_budget = 128 * 1024 * 1024

let between_queries w catalog =
  if isolated w then begin
    Catalog.memo_clear catalog;
    Catalog.set_index_budget catalog 0;
    Catalog.set_index_budget catalog index_budget
  end

(* {1 Expected answers} *)

(* The oracle for every distinct query: [Direct.run] (no a-priori rewrite),
   over the views when the program has any.  A [Maximal] query is checked
   level by level against the basket flock of that size.  On
   [market-spill] the unbudgeted plan answer is an oracle too.  The oracles
   are computed by their own process ([qfbench.exe oracle]) and saved as
   CSV, so their work does not show in the measured process's heap. *)
type expected = {
  direct : Relation.t list;  (** one per level for [Maximal] *)
  unbudgeted : Relation.t option;
}

let expected_answer w catalog q =
  let direct =
    match q with
    | Flock text ->
      let p = or_fail (Parse.program text) in
      let c =
        if p.Parse.views = [] then catalog
        else or_fail (Views.materialize catalog p.Parse.views)
      in
      [ Direct.run c p.Parse.flock ]
    | Maximal support ->
      List.init max_level (fun i ->
          Direct.run catalog
            (Apriori_gen.basket_flock ~pred:"baskets" ~k:(i + 1) ~support))
  in
  let unbudgeted =
    match w, q with
    | Market_spill, Flock text ->
      let p = or_fail (Parse.program text) in
      Some (Plan_exec.run catalog (Optimizer.optimize catalog p.Parse.flock))
    | _ -> None
  in
  { direct; unbudgeted }

let distinct_queries w =
  List.rev
    (List.fold_left
       (fun acc q ->
         if List.exists (fun q' -> query_key q' = query_key q) acc then acc
         else q :: acc)
       [] (queries w))

let oracle_file dir i what =
  Filename.concat dir (Printf.sprintf "oracle-%d-%s.csv" i what)

let write_oracles w catalog dir =
  if isolated w then Catalog.set_memo_budget catalog 0;
  List.iteri
    (fun i q ->
      let e = expected_answer w catalog q in
      List.iteri
        (fun j r -> Csv.save (oracle_file dir i (Printf.sprintf "direct%d" j)) r)
        e.direct;
      Option.iter (Csv.save (oracle_file dir i "unbudgeted")) e.unbudgeted)
    (distinct_queries w)

let read_oracles w dir =
  let expected = Hashtbl.create 16 in
  List.iteri
    (fun i q ->
      let levels = match q with Flock _ -> 1 | Maximal _ -> max_level in
      let direct =
        List.init levels (fun j ->
            Csv.load (oracle_file dir i (Printf.sprintf "direct%d" j)))
      in
      let unbudgeted =
        let f = oracle_file dir i "unbudgeted" in
        if Sys.file_exists f then Some (Csv.load f) else None
      in
      Hashtbl.replace expected (query_key q) { direct; unbudgeted })
    (distinct_queries w);
  expected

let answer_ok e = function
  | Rel r ->
    List.for_all (Relation.equal r) e.direct
    && (match e.unbudgeted with None -> true | Some u -> Relation.equal r u)
  | Levels levels ->
    (* The sequence stops at the first empty level, so the levels it
       returns are a non-empty prefix of the expected ones, and every
       expected level past it is empty. *)
    List.length levels <= List.length e.direct
    && List.for_all2
         (fun (l : Sequence.level) d -> Relation.equal l.Sequence.itemsets d)
         levels
         (List.filteri (fun i _ -> i < List.length levels) e.direct)
    && List.for_all Relation.is_empty
         (List.filteri (fun i _ -> i >= List.length levels) e.direct)

(* {1 Traced-run accounting} *)

(* Per-layer self times.  A span's layer is its own when it is one of the
   harness's [bench.*] spans or a kernel span, and its parent's otherwise;
   the self time of [bench.query] (the query's own span) is what no layer
   claims. *)
let layer_names =
  [ "parse"; "views"; "optimizer"; "plan_exec"; "join"; "aggregate"; "output" ]

let own_layer name =
  let prefix p = String.length name >= String.length p
                 && String.sub name 0 (String.length p) = p in
  match name with
  | "bench.query" -> Some "unattributed"
  | "bench.parse" -> Some "parse"
  | "bench.views" -> Some "views"
  | "bench.optimizer" -> Some "optimizer"
  | "bench.plan_exec" -> Some "plan_exec"
  | "bench.output" -> Some "output"
  | _ when prefix "join." -> Some "join"
  | _ when prefix "aggregate." -> Some "aggregate"
  | _ -> None

type acc = {
  self : (string, float) Hashtbl.t;
  ints : (string, int) Hashtbl.t;
  floats : (string, float) Hashtbl.t;
}

let new_acc () =
  { self = Hashtbl.create 16; ints = Hashtbl.create 32; floats = Hashtbl.create 8 }

let add_int acc k v =
  Hashtbl.replace acc.ints k (v + Option.value ~default:0 (Hashtbl.find_opt acc.ints k))

let add_float tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let get_int acc k = Option.value ~default:0 (Hashtbl.find_opt acc.ints k)
let get_self acc k = Option.value ~default:0. (Hashtbl.find_opt acc.self k)

let int_attr (s : Obs.span) k =
  match List.assoc_opt k s.Obs.attrs with Some (Obs.Int n) -> n | _ -> 0

(* Fold one query's Obs report into [acc]. *)
let absorb acc (r : Obs.report) =
  let dur (s : Obs.span) = s.Obs.stop_s -. s.Obs.start_s in
  (* Spans come in start order, so a parent's layer is known first.
     Spans outside the query's tree (worker-domain roots) are skipped: their
     wall time is already inside the span that waited for them. *)
  let layer = Hashtbl.create 64 and children = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.span) ->
      let inherited = Option.bind s.Obs.parent (Hashtbl.find_opt layer) in
      (match own_layer s.Obs.name, inherited with
       | Some "unattributed", None -> Hashtbl.replace layer s.Obs.id "unattributed"
       | Some l, Some _ | None, Some l -> Hashtbl.replace layer s.Obs.id l
       | _ -> ());
      Option.iter (fun p -> add_float children p (dur s)) s.Obs.parent)
    r.Obs.spans;
  List.iter
    (fun (s : Obs.span) ->
      match Hashtbl.find_opt layer s.Obs.id with
      | None -> ()
      | Some l ->
        let covered = Option.value ~default:0. (Hashtbl.find_opt children s.Obs.id) in
        add_float acc.self l (dur s -. covered);
        if s.Obs.name = "bench.query" then add_float acc.self "wall" (dur s);
        if l = "join" then begin
          add_int acc "join.probe_rows" (int_attr s "probe_rows");
          add_int acc "join.rows_out" (int_attr s "rows_out")
        end;
        if s.Obs.name = "aggregate.group_filter" then begin
          add_int acc "aggregate.candidates" (int_attr s "candidates");
          add_int acc "aggregate.survivors" (int_attr s "survivors")
        end)
    r.Obs.spans;
  List.iter (fun (k, v) -> add_int acc k v) r.Obs.counters;
  List.iter
    (fun (k, v) ->
      if k = "governor.peak_bytes" then
        Hashtbl.replace acc.floats k
          (Float.max v (Option.value ~default:0. (Hashtbl.find_opt acc.floats k)))
      else add_float acc.floats k v)
    r.Obs.gauges

let absorb_outcome acc (o : outcome) =
  add_int acc "optimizer.plans_costed" o.plans_costed;
  add_int acc "views.rows" o.view_rows;
  add_int acc "eval.negated_subgoals" o.negations;
  add_int acc "output.rows" o.output_rows;
  add_int acc "plan_exec.steps" (List.length o.steps);
  List.iter
    (fun (s : Plan_exec.step_report) ->
      add_int acc "filter.tabulated_rows" s.Plan_exec.tabulated_rows;
      add_int acc "filter.groups" s.Plan_exec.groups;
      add_int acc "filter.survivors" s.Plan_exec.survivors;
      if s.Plan_exec.reused_from <> None || s.Plan_exec.memo_hit then
        add_int acc "filter.reused_steps" 1)
    o.steps

(* {1 The timed loop} *)

(* The [p]-quantile of a sorted array; 0 for an empty one (a run without a
   successful query is invalid anyway). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let i = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

type loop = {
  latencies : float array;  (** of the queries that succeeded, wall clock *)
  attempted : int;
  failed : int;
  wall : float;
      (** the loop's wall time, set-up samples and kernel timings excluded *)
  reference : float;  (** the median time of the reference kernel in the loop *)
  heap_mb : float;
      (** the peak heap once the loop has run [min_samples] queries, rounded
          up to a whole pass: the heap keeps creeping up over hundreds of
          passes, so its peak at the end of the run would depend on how many
          passes the machine's speed let fit *)
  setups : float list;  (** set-up times sampled while the loop ran *)
  views_rows : int;
  negations : int;
  per_pass : acc;  (** counts over the first full pass of the query list *)
  whole : acc;  (** everything the loop did *)
}

(* Enough samples that at least ten lie above the 90th percentile. *)
let min_samples = 100

(* Set-up samples taken while the loop runs.  Sample j is taken once
   j / setup_samples of the loop's time has passed, so the samples see the
   same machine state as the query latencies rather than one moment of it. *)
let setup_samples = 20

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let timed_loop ?(min_samples = min_samples) ?sample_setup w catalog qs expected
    ~seconds ~traced =
  let qs = Array.of_list qs in
  let n = Array.length qs in
  (* The kernel is timed before every query, so its median sees the same
     moments of the machine as the queries' latencies. *)
  let lat = ref [] and references = ref [] and wall = ref 0. and heap_mb = ref 0. in
  let failed = ref 0 and i = ref 0 in
  let views_rows = ref 0 and negs = ref 0 in
  let per_pass = new_acc () and whole = new_acc () in
  let setups = ref [] and n_setups = ref 0 and paused = ref 0. in
  let start = now () in
  let elapsed () = now () -. start -. !paused in
  let take_setup sample =
    let t = now () in
    setups := sample () :: !setups;
    incr n_setups;
    paused := !paused +. (now () -. t)
  in
  let setup_due () =
    !n_setups < setup_samples
    && elapsed () >= float_of_int !n_setups *. seconds /. float_of_int setup_samples
  in
  let fail_query msg =
    incr failed;
    prerr_endline ("qfbench: " ^ msg)
  in
  (* Stop only between passes, so every query of the list is sampled
     equally often, and not before there are enough samples for the 90th
     percentile.  Each list has an odd number of queries, so the median
     falls inside one query's latencies instead of between two. *)
  while !i mod n <> 0 || elapsed () < seconds || !i < min_samples do
    Option.iter (fun s -> if setup_due () then take_setup s) sample_setup;
    let q = qs.(!i mod n) in
    references := time_reference () :: !references;
    let t_iter = now () in
    between_queries w catalog;
    if traced then begin
      Obs.reset ();
      Obs.set_enabled true
    end;
    let t0 = now () in
    let result =
      try Ok (span "bench.query" (fun () -> execute w catalog q))
      with e -> Error e
    in
    let dt = now () -. t0 in
    if traced then Obs.set_enabled false;
    (match result with
     | Ok o when not (answer_ok (Hashtbl.find expected (query_key q)) o.answer) ->
       fail_query ("wrong answer for query:\n" ^ query_key q)
     | Ok o ->
       lat := dt :: !lat;
       views_rows := !views_rows + o.view_rows;
       negs := !negs + o.negations;
       if traced then begin
         let r = Obs.report () in
         absorb whole r;
         absorb_outcome whole o;
         if !i < n then begin
           absorb per_pass r;
           absorb_outcome per_pass o
         end
       end;
       if w = Market_spill && o.spill_partitions = 0 then
         die 3 "invalid run: a market-spill query did not spill:\n%s" (query_key q)
     | Error e ->
       (* An exception, a typed Governor error among them. *)
       fail_query
         (Printf.sprintf "query failed (%s):\n%s" (Printexc.to_string e) (query_key q)));
    wall := !wall +. (now () -. t_iter);
    incr i;
    if !i mod n = 0 && !i >= min_samples && !heap_mb = 0. then heap_mb := heap_peak_mb ()
  done;
  Option.iter
    (fun s -> while !n_setups < setup_samples do take_setup s done)
    sample_setup;
  {
    latencies = Array.of_list (List.rev !lat);
    attempted = !i;
    failed = !failed;
    wall = !wall;
    reference = median !references;
    heap_mb = !heap_mb;
    setups = !setups;
    views_rows = !views_rows;
    negations = !negs;
    per_pass;
    whole;
  }

(* {1 Workload-design self-checks} *)

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

let self_check w catalog (l : loop) ~traced =
  let hits, misses, evictions = Catalog.memo_stats catalog in
  let invalid fmt = Printf.ksprintf (fun m -> die 3 "invalid run: %s" m) fmt in
  (match w with
   | Market_mine | Medical_mine | Market_spill ->
     if hits > 0 then invalid "%d memo hits on a workload without carried state" hits
   | Market_session ->
     if ratio hits misses < 0.8 then
       invalid "memo hit ratio %.3f on market-session (want >= 0.8)" (ratio hits misses);
     if evictions > 0 then invalid "%d memo evictions on market-session" evictions);
  if traced then begin
    let spills = get_int l.whole "governor.spill.partitions" in
    (match w with
     | Market_mine | Medical_mine | Market_session ->
       if spills > 0 then invalid "%d spill partitions outside market-spill" spills
     | Market_spill -> ());
  end;
  if w = Medical_mine then begin
    if l.views_rows = 0 then invalid "medical-mine materialized no view rows";
    if l.negations = 0 then invalid "medical-mine evaluated no negated subgoal"
  end

(* {1 Output} *)

let json_metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map json_metric metrics))

let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576.

let level_gc () =
  Gc.full_major ();
  Gc.compact ()

let run w dir ~seconds ~traced =
  let s = setup w dir in
  let dict_size = Dict.size () in
  let qs = queries w in
  if isolated w then Catalog.set_memo_budget s.catalog 0;
  let expected = read_oracles w dir in
  (* A session is measured in its steady state: one untimed pass fills the
     memo and index cache first.  Otherwise the cold pass's share of the
     loop grows whenever the machine runs slow and fewer passes fit. *)
  if not (isolated w) then List.iter (fun q -> ignore (execute w s.catalog q)) qs;
  (* The traced run first measures its own untraced p50, so the overhead
     of tracing is a ratio taken within one process. *)
  let untraced_p50 =
    if traced then begin
      level_gc ();
      let l =
        timed_loop ~min_samples:0 w s.catalog qs expected ~seconds:(seconds /. 4.)
          ~traced:false
      in
      let sorted = Array.copy l.latencies in
      Array.sort compare sorted;
      Some (percentile sorted 0.5 *. reference_s /. l.reference)
    end
    else None
  in
  level_gc ();
  let sample_setup = if traced then None else Some (fun () -> setup_in_child w dir) in
  let gc0 = Gc.quick_stat () in
  let l = timed_loop ?sample_setup w s.catalog qs expected ~seconds ~traced in
  let gc1 = Gc.quick_stat () in
  (* A failed query makes the run invalid: no metrics, exit 2. *)
  if l.failed > 0 then begin
    print_result ~correct:false ~attempted:l.attempted ~failed:l.failed [];
    exit 2
  end;
  self_check w s.catalog l ~traced;
  (* Every time below is scaled to the reference speed (see
     [reference_s]); the wall-clock figures are printed beside them. *)
  let scale = reference_s /. l.reference in
  let sorted = Array.copy l.latencies in
  Array.sort compare sorted;
  let nq = Array.length sorted in
  let wall_p50 = percentile sorted 0.5 and wall_p90 = percentile sorted 0.9 in
  let p50 = wall_p50 *. scale and p90 = wall_p90 *. scale in
  Printf.printf
    "reference kernel: %.3f ms (scaled to %.3f ms); wall clock: p50 %.6f s, p90 %.6f \
     s, %.3f queries/s, set-up %.6f s\n"
    (1000. *. l.reference) (1000. *. reference_s) wall_p50 wall_p90
    (float_of_int nq /. l.wall)
    (median (s.total_s :: l.setups));
  let metrics =
    if not traced then
      [
        (* The process's own set-up and the samples taken during the loop. *)
        "setup_s", median (s.total_s :: l.setups) *. scale, "s";
        "query_p50_s", p50, "s";
        "query_p90_s", p90, "s";
        "queries_per_s", float_of_int nq /. (l.wall *. scale), "1/s";
        "heap_peak_mb", l.heap_mb, "MB";
      ]
    else begin
      let nqf = float_of_int nq in
      let pp = l.per_pass and wh = l.whole in
      let per_q k = get_self wh k *. scale /. nqf in
      let pint k = float_of_int (get_int pp k) in
      let hit_ratio h m = ratio (get_int wh h) (get_int wh m) in
      let gcd f = f gc1 -. f gc0 in
      let layers =
        List.map (fun n -> n ^ ".s", per_q n, "s") layer_names
      in
      let dominant, _ =
        List.fold_left
          (fun (bn, bv) n -> if per_q n > bv then n, per_q n else bn, bv)
          ("none", neg_infinity) layer_names
      in
      Printf.printf "dominant layer: %s (%.1f%% of query wall time)\n" dominant
        (100. *. per_q dominant /. per_q "wall");
      let groups = get_int pp "filter.groups" in
      layers
      @ [
          "csv.load_s", s.load_s *. scale, "s";
          "csv.rows", float_of_int s.rows, "count";
          "csv.mb", float_of_int s.bytes /. 1048576., "MB";
          "dict.size", float_of_int dict_size, "count";
          "statistics.s", s.stats_s *. scale, "s";
          "pool.setup_s", s.pool_s *. scale, "s";
          "output.rows", pint "output.rows", "count";
          "views.rows", pint "views.rows", "count";
          "eval.negated_subgoals", pint "eval.negated_subgoals", "count";
          "optimizer.plans_costed", pint "optimizer.plans_costed", "count";
          "apriori.candidate_subqueries", pint "apriori.candidate_subqueries", "count";
          "plan_exec.steps", pint "plan_exec.steps", "count";
          "filter.tabulated_rows", pint "filter.tabulated_rows", "count";
          "filter.groups", pint "filter.groups", "count";
          "filter.survivors", pint "filter.survivors", "count";
          ( "filter.survivor_ratio",
            (if groups = 0 then 0.
             else float_of_int (get_int pp "filter.survivors") /. float_of_int groups),
            "ratio" );
          "filter.reused_steps", pint "filter.reused_steps", "count";
          "sip.rows_pruned", pint "sip.rows_pruned", "count";
          "sip.reducer_built", pint "sip.reducer_built", "count";
          "join.probe_rows", pint "join.probe_rows", "count";
          "join.rows_out", pint "join.rows_out", "count";
          "aggregate.candidates", pint "aggregate.candidates", "count";
          "aggregate.survivors", pint "aggregate.survivors", "count";
          "index_cache.hits", pint "index_cache.hits", "count";
          "index_cache.misses", pint "index_cache.misses", "count";
          "index_cache.hit_ratio", hit_ratio "index_cache.hits" "index_cache.misses", "ratio";
          "index_cache.evictions", pint "index_cache.evict", "count";
          "memo.hits", pint "memo.hit", "count";
          "memo.misses", pint "memo.miss", "count";
          "memo.hit_ratio", hit_ratio "memo.hit" "memo.miss", "ratio";
          "memo.evictions", pint "memo.evict", "count";
          "memo.mb", float_of_int (Catalog.memo_bytes s.catalog) /. 1048576., "MB";
          ( "governor.peak_mb",
            Option.value ~default:0. (Hashtbl.find_opt wh.floats "governor.peak_bytes")
            /. 1048576.,
            "MB" );
          "spill.partitions", pint "governor.spill.partitions", "count";
          "spill.mb_written", pint "governor.spill.bytes" /. 1048576., "MB";
          "spill.rows", pint "governor.spill.rows", "count";
          "pool.size", float_of_int (Pool.size (Pool.default ())), "count";
          "pool.par_threshold", float_of_int (Pool.par_threshold ()), "rows";
          "pool.chunk.tasks", float_of_int (get_int wh "pool.chunk.tasks") /. nqf, "count";
          ( "pool.chunk.time_total_s",
            Option.value ~default:0. (Hashtbl.find_opt wh.floats "pool.chunk.time_total_s")
            *. scale /. nqf,
            "s" );
          ( "gc.alloc_mb_per_query",
            words_mb
              (gcd (fun g -> g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words))
            /. nqf,
            "MB" );
          ( "gc.minor_collections",
            float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) /. nqf,
            "count" );
          ( "gc.major_collections",
            float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. nqf,
            "count" );
          "gc.promoted_mb", words_mb (gcd (fun g -> g.Gc.promoted_words)) /. nqf, "MB";
          "reference.kernel_s", l.reference, "s";
          "unattributed_s", per_q "unattributed", "s";
          "query_wall_s", per_q "wall", "s";
          ( "trace.overhead",
            p50 /. Option.value ~default:p50 untraced_p50,
            "ratio" );
        ]
    end
  in
  (* The threshold in effect, so a bimodal run can be traced to it. *)
  Printf.printf "pool: %d domains, par_threshold %d rows\n" (Pool.size (Pool.default ()))
    (Pool.par_threshold ());
  print_result ~correct:true ~attempted:l.attempted ~failed:0 metrics

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; w; seed; dir ] -> generate (workload_of_string w) (int_of_string seed) dir
  | [ _; "oracle"; w; dir ] ->
    let w = workload_of_string w in
    write_oracles w (setup w dir).catalog dir
  | [ _; "setup"; w; dir ] ->
    let s = setup (workload_of_string w) dir in
    Printf.printf "%.17g\n" s.total_s
  | [ _; "run"; w; dir; seconds; trace ] ->
    run (workload_of_string w) dir ~seconds:(float_of_string seconds)
      ~traced:(trace = "1")
  | _ ->
    die 1
      "usage: qfbench.exe (gen WORKLOAD SEED DIR | oracle WORKLOAD DIR | setup \
       WORKLOAD DIR | run WORKLOAD DIR SECONDS TRACE)"
