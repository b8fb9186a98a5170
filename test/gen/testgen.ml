(* Shared random generators for the test suites, and the differential
   driver that checks every executor against generate-and-test.

   Everything here is deterministic given a seed: the property tests drive
   these through QCheck's own state, while the differential and
   observability suites use {!instance} to replay a fixed sequence of
   seeds, so a failure always names the instance that produced it. *)

module R = Qf_relational.Relation
module V = Qf_relational.Value
module Catalog = Qf_relational.Catalog
module Ast = Qf_datalog.Ast
module Governor = Qf_governor.Governor
open Qf_core

(* {1 Seeded sampling} *)

(* One deterministic sample of [gen]: the same [seed] always yields the
   same value, independent of global [Random] state. *)
let instance ~seed gen =
  QCheck.Gen.generate1 ~rand:(Random.State.make [| 0x5eed; seed |]) gen

(* {1 Relations} *)

let gen_small_relation ~columns ~max_value ~max_rows =
  QCheck.Gen.(
    let* n = int_range 0 max_rows in
    let* rows =
      list_size (return n)
        (list_size
           (return (List.length columns))
           (map (fun i -> V.Int i) (int_range 0 max_value)))
    in
    return (R.of_values columns rows))

let pp_relation rel = Format.asprintf "%a" R.pp rel

(* {1 Market-basket instances} *)

(* A random (BID, Item) relation plus a support threshold — the canonical
   input of the paper's market-basket flocks. *)
let gen_basket_instance =
  QCheck.Gen.(
    let* n_baskets = int_range 1 10 in
    let* n_items = int_range 1 6 in
    let* rows =
      list_size (int_range 0 40)
        (pair (int_range 1 n_baskets) (int_range 1 n_items))
    in
    let* threshold = int_range 1 4 in
    let rel =
      R.of_values [ "BID"; "Item" ]
        (List.map (fun (b, i) -> [ V.Int b; V.Int i ]) rows)
    in
    return (rel, threshold))

let arb_basket_instance =
  QCheck.make
    ~print:(fun (rel, t) ->
      Printf.sprintf "threshold %d\n%s" t (pp_relation rel))
    gen_basket_instance

let pair_flock threshold =
  Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support:threshold

let catalog_of rel =
  let cat = Catalog.create () in
  Catalog.add cat "baskets" rel;
  cat

(* {1 Tiny catalogs and random safe rules} *)

(* A random catalog over a tiny value universe, so brute-force reference
   evaluators keep their assignment spaces small. *)
let gen_tiny_catalog =
  QCheck.Gen.(
    let* p = gen_small_relation ~columns:[ "A"; "B" ] ~max_value:3 ~max_rows:10 in
    let* q = gen_small_relation ~columns:[ "A" ] ~max_value:3 ~max_rows:5 in
    let* r = gen_small_relation ~columns:[ "A"; "B" ] ~max_value:3 ~max_rows:10 in
    let cat = Catalog.create () in
    Catalog.add cat "p" p;
    Catalog.add cat "q" q;
    Catalog.add cat "r" r;
    return cat)

(* Random safe extended rules: positive atoms bind; negations, comparisons,
   and the head only use bound terms. *)
let gen_safe_rule =
  QCheck.Gen.(
    let var_pool = [ "X"; "Y"; "Z" ] and param_pool = [ "a"; "b" ] in
    let gen_fresh_term =
      frequency
        [
          4, map (fun v -> Ast.Var v) (oneofl var_pool);
          2, map (fun p -> Ast.Param p) (oneofl param_pool);
          1, map (fun i -> Ast.Const (V.Int i)) (int_range 0 3);
        ]
    in
    let gen_pos =
      let* pred = oneofl [ "p", 2; "q", 1; "r", 2 ] in
      let name, arity = pred in
      let* args = list_size (return arity) gen_fresh_term in
      return { Ast.pred = name; args }
    in
    let* n_pos = int_range 1 3 in
    let* pos_atoms = list_size (return n_pos) gen_pos in
    let bound =
      List.concat_map
        (fun (a : Ast.atom) ->
          List.filter_map
            (function
              | (Ast.Var _ | Ast.Param _) as t -> Some t
              | Ast.Const _ -> None)
            a.args)
        pos_atoms
    in
    let gen_bound_term =
      if bound = [] then map (fun i -> Ast.Const (V.Int i)) (int_range 0 3)
      else
        frequency
          [
            3, oneofl bound;
            1, map (fun i -> Ast.Const (V.Int i)) (int_range 0 3);
          ]
    in
    let* negs =
      list_size (int_range 0 1)
        (let* pred = oneofl [ "p", 2; "r", 2 ] in
         let name, arity = pred in
         let* args = list_size (return arity) gen_bound_term in
         return (Ast.Neg { Ast.pred = name; args }))
    in
    let* cmps =
      list_size (int_range 0 2)
        (let* l = gen_bound_term in
         let* c = oneofl Ast.[ Lt; Le; Gt; Ge; Eq; Ne ] in
         let* rt = gen_bound_term in
         return (Ast.Cmp (l, c, rt)))
    in
    let bound_vars =
      List.filter_map (function Ast.Var v -> Some v | _ -> None) bound
      |> List.sort_uniq String.compare
    in
    let* head_args =
      match bound_vars with
      | [] -> return [ Ast.Const (V.Int 0) ]
      | vs ->
        let* k = int_range 1 (min 2 (List.length vs)) in
        let* picked = list_size (return k) (oneofl vs) in
        return (List.map (fun v -> Ast.Var v) picked)
    in
    return
      {
        Ast.head = { Ast.pred = "answer"; args = head_args };
        body = List.map (fun a -> Ast.Pos a) pos_atoms @ negs @ cmps;
      })

let arb_rule_and_catalog =
  QCheck.make
    ~print:(fun (rule, _) -> Qf_datalog.Pretty.rule_to_string rule)
    QCheck.Gen.(pair gen_safe_rule gen_tiny_catalog)

(* {1 Random rule ASTs (parser round-trips)} *)

(* Constants of every kind, as the lexer must read them back: signed
   integers; reals that are integral (they must not print as integers),
   that need 17 digits, or that print with an exponent; and strings of
   printable characters, quotes and backslashes included. *)
let gen_const =
  QCheck.Gen.(
    frequency
      [
        2, map (fun i -> V.Int i) (int_range (-1000) 1000);
        1, map (fun i -> V.Real (float_of_int i)) (int_range (-50) 50);
        ( 1,
          map (fun f -> V.Real (if Float.is_finite f then f else 0.5)) float );
        ( 1,
          map
            (fun (m, e) -> V.Real (Float.ldexp m e))
            (pair (float_range (-1.) 1.) (int_range (-80) 80)) );
        1, map (fun i -> V.Str (Printf.sprintf "c%d" i)) (int_range 0 3);
        ( 1,
          map
            (fun s -> V.Str s)
            (string_size ~gen:(map Char.chr (int_range 32 126))
               (int_range 0 6)) );
      ])

let gen_term =
  QCheck.Gen.(
    frequency
      [
        3, map (fun i -> Ast.Var (Printf.sprintf "X%d" i)) (int_range 0 3);
        2, map (fun i -> Ast.Param (Printf.sprintf "p%d" i)) (int_range 0 2);
        3, map (fun c -> Ast.Const c) gen_const;
      ])

let gen_atom =
  QCheck.Gen.(
    let* pred = oneofl [ "p"; "q"; "r" ] in
    let* arity = int_range 1 3 in
    let* args = list_size (return arity) gen_term in
    return { Ast.pred; args })

let gen_literal =
  QCheck.Gen.(
    frequency
      [
        5, map (fun a -> Ast.Pos a) gen_atom;
        1, map (fun a -> Ast.Neg a) gen_atom;
        ( 1,
          let* l = gen_term in
          let* r = gen_term in
          let* c = oneofl Ast.[ Lt; Le; Gt; Ge; Eq; Ne ] in
          return (Ast.Cmp (l, c, r)) );
      ])

let gen_rule =
  QCheck.Gen.(
    let* body = list_size (int_range 1 5) gen_literal in
    let* head_args = list_size (int_range 1 2) gen_term in
    (* Heads must not contain parameters (flock convention). *)
    let head_args =
      List.map
        (function Ast.Param p -> Ast.Var ("P" ^ p) | t -> t)
        head_args
    in
    return { Ast.head = { Ast.pred = "answer"; args = head_args }; body })

let arb_rule = QCheck.make ~print:Qf_datalog.Pretty.rule_to_string gen_rule

(* {1 Spill hygiene} *)

(* Spill files of this process left behind anywhere under the temp dir:
   the hygiene invariant is that this list is empty after every governed
   run, including every faulted one. *)
let leaked_spill_files () =
  let prefix = "qf_spill." ^ string_of_int (Unix.getpid ()) ^ "." in
  let tmp = Filename.get_temp_dir_name () in
  match Sys.readdir tmp with
  | entries ->
    Array.to_list entries
    |> List.filter (fun e -> String.starts_with ~prefix e)
    |> List.map (fun e -> Filename.concat tmp e)
  | exception Sys_error _ -> []

let assert_no_leaks context =
  match leaked_spill_files () with
  | [] -> ()
  | files ->
    (* Clean up so one failure does not cascade into every later case. *)
    List.iter
      (fun dir ->
        (try
           Array.iter
             (fun f -> Sys.remove (Filename.concat dir f))
             (Sys.readdir dir)
         with Sys_error _ -> ());
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      files;
    Alcotest.failf "%s: leaked spill files: %s" context
      (String.concat ", " files)

(* {1 The configuration space}

   Every executor must return the generate-and-test answer (§2) at every
   point of this space.  A knob is one field here and one line in
   {!space}. *)

type config = {
  memo : int;  (** the catalog's memo budget in bytes; [0] turns it off *)
  mem : int option;  (** a governor's memory budget; [None] is ungoverned *)
  sip : bool;  (** [Plan_exec.options.semijoin_reduction] *)
  reuse : bool;  (** [Plan_exec.options.reuse] *)
}

let default_config = { memo = max_int; mem = None; sip = true; reuse = true }

(* Small enough that the instances below spill somewhere. *)
let tiny_mem = 4096

(* The full cross product of every knob's values. *)
let space =
  List.fold_left
    (fun configs values -> List.concat_map values configs)
    [ default_config ]
    [
      (fun c -> List.map (fun memo -> { c with memo }) [ max_int; 2048; 0 ]);
      (fun c ->
        List.map (fun mem -> { c with mem })
          [ None; Some tiny_mem; Some 65536 ]);
      (fun c -> List.map (fun sip -> { c with sip }) [ true; false ]);
      (fun c -> List.map (fun reuse -> { c with reuse }) [ true; false ]);
    ]

let budget_name n = if n = max_int then "unbounded" else string_of_int n

let mem_name mem =
  "mem " ^ Option.fold ~none:"ungoverned" ~some:budget_name mem

let config_name c =
  Printf.sprintf "memo %s, %s, sip %b, reuse %b" (budget_name c.memo)
    (mem_name c.mem) c.sip c.reuse

let arb_config = QCheck.make ~print:config_name (QCheck.Gen.oneofl space)

(* {1 Instances} *)

(* A flock over named relations, with the levelwise plan when the flock
   is a basket flock, and the configuration [Dynamic] runs under.
   [name] says where the instance came from (family and seed). *)
type flock_instance = {
  name : string;
  relations : (string * R.t) list;
  flock : Flock.t;
  levelwise : Plan.t option;
  dynamic : Dynamic.config;
}

(* The k-item basket flock over a basket instance. *)
let basket_instance ~name ~k (rel, threshold) =
  let flock, plan =
    Apriori_gen.levelwise_basket ~pred:"baskets" ~k ~support:threshold
  in
  {
    name = Printf.sprintf "%s (k = %d, threshold %d)" name k threshold;
    relations = [ "baskets", rel ];
    flock;
    levelwise = Some plan;
    dynamic = Dynamic.default_config;
  }

(* Two random relations [p] and [q] over X and Y, and a threshold. *)
let gen_pq_instance ~max_value ~max_rows =
  let rel = gen_small_relation ~columns:[ "X"; "Y" ] ~max_value ~max_rows in
  QCheck.Gen.(triple rel rel (int_range 1 3))

let gen_union_instance = gen_pq_instance ~max_value:4 ~max_rows:15

let arb_union_instance =
  QCheck.make
    ~print:(fun (p, q, t) ->
      Printf.sprintf "threshold %d\np:\n%s\nq:\n%s" t (pp_relation p)
        (pp_relation q))
    gen_union_instance

(* A flock over [p] and [q] from its rules' text; [Dynamic] filters at
   every chance, so a union's interposed filters always run. *)
let pq_instance ~name (p, q, threshold) rules =
  {
    name = Printf.sprintf "%s (threshold %d)" name threshold;
    relations = [ "p", p; "q", q ];
    flock =
      Parse.flock_exn
        (Printf.sprintf "QUERY:\n%s\nFILTER:\nCOUNT(answer.X) >= %d"
           (String.concat "\n" rules) threshold);
    levelwise = None;
    dynamic = { Dynamic.ratio_factor = 1e9; improvement_factor = 1e9 };
  }

let catalog_of_instance inst =
  let cat = Catalog.create () in
  List.iter (fun (name, rel) -> Catalog.add cat name rel) inst.relations;
  cat

(* {1 The differential driver} *)

(* Every executor of [inst]: the plans (the optimizer's plan for [cat],
   the a-priori singleton plan, the levelwise plan), which read the
   config's plan options and the catalog's memo, and the others (direct,
   §4.4's dynamic filter selection and, when governed, naive; ungoverned,
   naive is the oracle itself), which read only the memory budget.  Plans
   are built once here, not in every config. *)
let executors cat inst =
  let singleton =
    match Apriori_gen.singleton_plan inst.flock with
    | Ok p -> p
    | Error e -> failwith ("singleton plan: " ^ e)
  in
  let dynamic cat =
    match Dynamic.run ~config:inst.dynamic cat inst.flock with
    | Ok r -> r.Dynamic.answers
    | Error e -> failwith ("dynamic: " ^ e)
  in
  let plans =
    [
      "optimized plan", Optimizer.optimize cat inst.flock;
      "singleton plan", singleton;
    ]
    @ Option.fold ~none:[]
        ~some:(fun p -> [ "levelwise plan", p ])
        inst.levelwise
  in
  let others mem =
    [ "direct", (fun cat -> Direct.run cat inst.flock); "dynamic", dynamic ]
    @ if mem = None then [] else [ "naive", fun cat -> Naive.run cat inst.flock ]
  in
  plans, others

(* The generate-and-test answer, plus a check of the tabulation it
   relies on: the tabulation skips its dedupe pass when it keeps every
   bound key, trusting that environment rows are distinct, so a rebuild
   through [R.add], which dedupes, must not shrink it. *)
let oracle cat inst =
  List.iter
    (fun rule ->
      let tab = Qf_datalog.Eval.tabulate cat rule in
      let rebuilt = R.create (R.schema tab) in
      R.iter (R.add rebuilt) tab;
      if R.cardinal rebuilt <> R.cardinal tab then
        Alcotest.failf "%s: tabulation has duplicate rows (%d, %d distinct)"
          inst.name (R.cardinal tab) (R.cardinal rebuilt))
    inst.flock.Flock.query;
  Naive.run cat inst.flock

let fail inst ~setting pass executor fmt =
  Printf.ksprintf
    (fun msg ->
      Alcotest.failf "%s: %s, %s run, under %s: %s" inst.name executor pass
        setting msg)
    fmt

(* Each of [runs] under memory budget [mem] against [expected]; a failure
   names the executor, [pass] and [setting].  A governed pass must leave
   no spill file.  Returns the spill runs written. *)
let run_pass inst ~setting ~mem ~expected pass runs =
  let spills = ref 0 in
  let governed f =
    match mem with
    | None -> f ()
    | Some mem_budget ->
      let g = Governor.create ~mem_budget () in
      let got = Governor.with_ctx g f in
      spills := !spills + (Governor.stats g).Governor.spill_partitions;
      got
  in
  List.iter
    (fun (executor, run) ->
      match governed run with
      | got ->
        if not (R.equal expected got) then
          fail inst ~setting pass executor
            "disagrees with naive\nexpected:\n%s\ngot:\n%s"
            (pp_relation expected) (pp_relation got)
      | exception exn ->
        fail inst ~setting pass executor "raised %s" (Printexc.to_string exn))
    runs;
  if mem <> None then assert_no_leaks inst.name;
  !spills

(* The non-plan executors on [cat] under memory budget [mem]. *)
let check_others cat mem inst ~others ~expected =
  run_pass inst ~setting:(mem_name mem) ~mem ~expected "cold"
    (List.map (fun (name, run) -> name, fun () -> run cat) (others mem))

(* The plans on [cat] under [config], cold and then warm.  With the memo
   unbounded and reuse on, the warm plans are served by the memo; with
   either off, never. *)
let check_plans cat config inst ~plans ~expected =
  Catalog.set_memo_budget cat config.memo;
  let options =
    { Plan_exec.semijoin_reduction = config.sip; reuse = config.reuse }
  in
  let setting = config_name config in
  let runs =
    List.map (fun (name, p) -> name, fun () -> Plan_exec.run ~options cat p) plans
  in
  let pass name = run_pass inst ~setting ~mem:config.mem ~expected name runs in
  let hits () =
    let h, _, _ = Catalog.memo_stats cat in
    h
  in
  let cold = pass "cold" in
  let before = hits () in
  let warm = pass "warm" in
  let warm_hits = hits () - before in
  if (config.memo = 0 || not config.reuse) && warm_hits > 0 then
    fail inst ~setting "warm" "the plans" "%d memo hits" warm_hits;
  if config.memo = max_int && config.reuse && warm_hits = 0 then
    fail inst ~setting "warm" "the plans" "no memo hit";
  cold + warm

(* [inst] against the generate-and-test answer, computed once: the plans
   under each of [configs], the other executors under each memory budget
   among them, each on a fresh catalog.  Returns the spill runs written
   under the tiny memory budget. *)
let check ~configs inst =
  let cat = catalog_of_instance inst in
  let expected = oracle cat inst in
  let plans, others = executors cat inst in
  let tiny mem spills = if mem = Some tiny_mem then spills else 0 in
  let mems = List.sort_uniq compare (List.map (fun c -> c.mem) configs) in
  List.fold_left
    (fun spills mem ->
      spills
      + tiny mem
          (check_others (catalog_of_instance inst) mem inst ~others ~expected))
    0 mems
  + List.fold_left
      (fun spills config ->
        spills
        + tiny config.mem
            (check_plans (catalog_of_instance inst) config inst ~plans
               ~expected))
      0 configs

(* Each instance under the default config and [points] more points of
   the space, taking the points in turn, so every point runs on
   [points * List.length instances / List.length space] instances or
   more.  Returns the spill runs written under the tiny memory budget. *)
let check_corpus ?(points = 1) instances =
  let n = List.length space in
  List.fold_left ( + ) 0
    (List.mapi
       (fun i inst ->
         check inst
           ~configs:
             (default_config
             :: List.init points (fun j ->
                    List.nth space (((i * points) + j) mod n))))
       instances)

(* Both sides of a metamorphic property: [a] and then [b], a neighbouring
   flock over [a]'s relations, under the default config on one catalog,
   so the memo sits between them.  Each side is checked against its own
   generate-and-test answer, which is returned. *)
let check_neighbours a b =
  let cat = catalog_of_instance a in
  let run inst =
    let expected = oracle cat inst in
    let plans, others = executors cat inst in
    ignore (check_others cat default_config.mem inst ~others ~expected);
    ignore (check_plans cat default_config inst ~plans ~expected);
    expected
  in
  let ra = run a in
  ra, run b
