(* Property-based tests (qcheck): algebraic laws of the relational layer,
   the subquery upper-bound property, and parser round-trips on random
   rule ASTs.  The core soundness invariant (every executor = naive) on
   random flock instances is the differential suite's QCheck entry.

   All generators live in the shared [Qf_testgen.Testgen] library, which
   the differential and observability suites reuse with fixed seeds. *)
module R = Qf_relational.Relation
module V = Qf_relational.Value
module Catalog = Qf_relational.Catalog
module Ast = Qf_datalog.Ast
open Qf_core
open Qf_testgen.Testgen

(* {1 Relational-algebra laws} *)

(* Joins are rule bodies over [a(X,Y)] and [b(Y,Z)], evaluated by the
   binding extension; [bkeys] is [b]'s join column, for negation. *)
let arb_two_relations =
  QCheck.make
    ~print:(fun (a, b) -> pp_relation a ^ "\n----\n" ^ pp_relation b)
    QCheck.Gen.(
      pair
        (gen_small_relation ~columns:[ "X"; "Y" ] ~max_value:5 ~max_rows:12)
        (gen_small_relation ~columns:[ "Y"; "Z" ] ~max_value:5 ~max_rows:12))

let join_catalog a b =
  let cat = Catalog.create () in
  Catalog.add cat "a" a;
  Catalog.add cat "b" b;
  Catalog.add cat "bkeys" (R.project b [ "Y" ]);
  cat

let prop_semi_anti_partition =
  QCheck.Test.make ~name:"semi + anti partition the left relation" ~count:200
    arb_two_relations (fun (a, b) ->
      let cat = join_catalog a b in
      let semi = Test_util.tabulate cat "answer(X,Y) :- a(X,Y) AND b(Y,Z)" in
      let anti = Test_util.tabulate cat "answer(X,Y) :- a(X,Y) AND NOT bkeys(Y)" in
      R.cardinal semi + R.cardinal anti = R.cardinal a
      && List.equal Qf_relational.Tuple.equal
           (List.sort Qf_relational.Tuple.compare
              (R.to_list semi @ R.to_list anti))
           (R.to_sorted_list a))

(* Exactly one output row per matching pair, so never more than the
   cross product. *)
let prop_join_cardinality_bound =
  QCheck.Test.make ~name:"equi-join is bounded by the cross product" ~count:200
    arb_two_relations (fun (a, b) ->
      let joined =
        R.cardinal
          (Test_util.tabulate (join_catalog a b)
             "answer(X,Y,Z) :- a(X,Y) AND b(Y,Z)")
      in
      let y t = Qf_relational.Tuple.get t 1 and y' t = Qf_relational.Tuple.get t 0 in
      let matching_pairs =
        R.fold
          (fun ta n ->
            R.fold (fun tb n -> if V.equal (y ta) (y' tb) then n + 1 else n) b n)
          a 0
      in
      joined = matching_pairs && joined <= R.cardinal a * R.cardinal b)

let prop_project_idempotent =
  QCheck.Test.make ~name:"projection is idempotent" ~count:200
    (QCheck.make ~print:pp_relation
       (gen_small_relation ~columns:[ "X"; "Y" ] ~max_value:5 ~max_rows:15))
    (fun r ->
      let p = R.project r [ "X" ] in
      R.equal p (R.project p [ "X" ]))

let prop_group_filter_antitone_in_threshold =
  QCheck.Test.make
    ~name:"raising the threshold only removes groups" ~count:200
    (QCheck.make ~print:pp_relation
       (gen_small_relation ~columns:[ "G"; "T" ] ~max_value:4 ~max_rows:20))
    (fun r ->
      let at t =
        Qf_relational.Aggregate.group_filter r ~keys:[ "G" ]
          ~func:Qf_relational.Aggregate.Count ~threshold:t
      in
      let low = at 1. and high = at 3. in
      R.fold (fun tup ok -> ok && R.mem low tup) high true)

let prop_storage_roundtrip =
  QCheck.Test.make ~name:"relations survive the store" ~count:40
    (QCheck.make ~print:pp_relation
       (gen_small_relation ~columns:[ "X"; "Y"; "Z" ] ~max_value:50 ~max_rows:60))
    (fun rel ->
      let dir = Filename.temp_file "qfprop" "" in
      Sys.remove dir;
      let store = Qf_storage.Store.open_dir dir in
      Qf_storage.Store.save store "r" rel;
      let back = Qf_storage.Store.load store "r" in
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir;
      R.equal rel back)

(* Code records: chunks of arity 0-4 with no rows, one row, or rows over
   many blocks, with codes at both ends of the u32 range, read back while
   the file is still being written.  A row with a negative code or a
   code of 2^32 is refused whole. *)
let gen_code_chunk =
  QCheck.Gen.(
    let* arity = int_range 0 4 in
    let* nrows = oneof [ return 0; return 1; int_range 2 3000 ] in
    let code =
      frequency
        [
          1, return 0;
          1, return 0xFFFF_FFFF;
          3, int_range 0 1000;
          3, int_range 0 0xFFFF_FFFF;
        ]
    in
    let* cols = array_repeat arity (array_repeat nrows code) in
    return { Qf_relational.Chunkrel.nrows; cols })

let pp_code_chunk (chunk : Qf_relational.Chunkrel.t) =
  Printf.sprintf "arity %d, %d rows, first: [%s]"
    (Array.length chunk.cols) chunk.nrows
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun col -> if chunk.nrows = 0 then "-" else string_of_int col.(0))
             chunk.cols)))

let prop_code_records_roundtrip =
  QCheck.Test.make ~name:"heap-file code records round-trip in order" ~count:60
    (QCheck.make ~print:pp_code_chunk gen_code_chunk)
    (fun (chunk : Qf_relational.Chunkrel.t) ->
      let module Heap_file = Qf_relational.Heap_file in
      let arity = Array.length chunk.cols in
      let schema =
        Qf_relational.Schema.of_list (List.init arity (Printf.sprintf "C%d"))
      in
      let path = Filename.temp_file "qfprop" ".qfc" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      let file = Heap_file.create path schema in
      Fun.protect ~finally:(fun () -> Heap_file.close file) @@ fun () ->
      for i = 0 to chunk.nrows - 1 do
        Heap_file.append_codes file chunk.cols i
      done;
      (* The bad code goes last, after codes that would be valid. *)
      let refused bad =
        arity = 0
        ||
        let row =
          Array.init arity (fun c -> [| (if c = arity - 1 then bad else 7) |])
        in
        match Heap_file.append_codes file row 0 with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      let refused = refused (-1) && refused (1 lsl 32) in
      let back = Heap_file.to_chunk file in
      let n = chunk.nrows in
      refused && back.nrows = n
      && Array.for_all2
           (fun a b -> Array.sub a 0 n = Array.sub b 0 n)
           chunk.cols back.cols)

let compare_pair (a, b) (c, d) =
  match V.compare a c with 0 -> V.compare b d | n -> n

let prop_fixpoint_transitive_closure =
  QCheck.Test.make
    ~name:"semi-naive transitive closure = brute-force closure" ~count:80
    (QCheck.make ~print:pp_relation
       (gen_small_relation ~columns:[ "X"; "Y" ] ~max_value:8 ~max_rows:25))
    (fun edges ->
      let cat = Catalog.create () in
      Catalog.add cat "edge" edges;
      let rule text =
        match Qf_datalog.Parser.parse_rule text with
        | Ok r -> r
        | Error e -> failwith e
      in
      match
        Views.materialize cat
          [
            rule "reach(X,Y) :- edge(X,Y)";
            rule "reach(X,Z) :- reach(X,Y) AND edge(Y,Z)";
          ]
      with
      | Error e -> QCheck.Test.fail_report e
      | Ok cat' ->
        let reach = Catalog.find cat' "reach" in
        (* Brute force over value pairs: compose the closure with the
           edges until nothing new appears. *)
        let pairs r =
          List.sort_uniq compare_pair
            (List.map
               (fun t -> Qf_relational.Tuple.get t 0, Qf_relational.Tuple.get t 1)
               (R.to_list r))
        in
        let edge_pairs = pairs edges in
        let rec close c =
          let step =
            List.concat_map
              (fun (x, y) ->
                List.filter_map
                  (fun (y', z) -> if V.equal y y' then Some (x, z) else None)
                  edge_pairs)
              c
          in
          let next = List.sort_uniq compare_pair (c @ step) in
          if List.length next = List.length c then c else close next
        in
        List.equal
          (fun a b -> compare_pair a b = 0)
          (close edge_pairs) (pairs reach))

(* {1 Subquery upper bound} *)

let count_by_params rel params =
  let groups =
    Qf_relational.Aggregate.group_by rel ~keys:params
      ~func:Qf_relational.Aggregate.Count
  in
  List.map
    (fun (k, v) ->
      ( k,
        match v with
        | V.Real f -> int_of_float f
        | V.Int n -> n
        | V.Str _ -> 0 ))
    groups

let prop_subquery_upper_bound =
  QCheck.Test.make
    ~name:"safe subqueries upper-bound per-assignment counts" ~count:100
    arb_basket_instance (fun (rel, _) ->
      let cat = catalog_of rel in
      let flock = pair_flock 1 in
      let full_rule = List.hd flock.Flock.query in
      let full_tab = Qf_datalog.Eval.tabulate cat full_rule in
      let full_counts = count_by_params full_tab [ "$1"; "$2" ] in
      List.for_all
        (fun (c : Qf_datalog.Subquery.candidate) ->
          let sub_tab = Qf_datalog.Eval.tabulate cat c.rule in
          let keys = List.map (fun p -> "$" ^ p) c.params in
          let sub_counts = count_by_params sub_tab keys in
          (* Every full-query assignment's count is bounded by the
             subquery's count for the projected parameters. *)
          List.for_all
            (fun (full_key, full_n) ->
              let positions =
                List.map
                  (fun key ->
                    match key with
                    | "$1" -> 0
                    | "$2" -> 1
                    | _ -> assert false)
                  keys
              in
              let projected =
                Qf_relational.Tuple.of_list
                  (List.map (Qf_relational.Tuple.get full_key) positions)
              in
              match
                List.find_opt
                  (fun (k, _) -> Qf_relational.Tuple.equal k projected)
                  sub_counts
              with
              | Some (_, sub_n) -> sub_n >= full_n
              | None -> false)
            full_counts)
        (Qf_datalog.Subquery.enumerate full_rule))

(* {1 Evaluator vs brute-force reference on random safe extended rules} *)

let prop_eval_matches_reference =
  QCheck.Test.make
    ~name:"evaluator = brute-force reference on random safe rules" ~count:300
    arb_rule_and_catalog (fun (rule, catalog) ->
      assert (Qf_datalog.Safety.is_safe rule);
      let fast = Qf_datalog.Eval.tabulate catalog rule in
      let slow = Qf_datalog.Reference.tabulate catalog rule in
      R.equal fast slow)

let prop_minimize_preserves_semantics =
  QCheck.Test.make
    ~name:"CQ minimization preserves evaluation on random rules" ~count:200
    arb_rule_and_catalog (fun (rule, catalog) ->
      let minimized = Qf_datalog.Containment.minimize rule in
      List.length minimized.Ast.body <= List.length rule.Ast.body
      && R.equal
           (Qf_datalog.Eval.tabulate catalog rule)
           (Qf_datalog.Eval.tabulate catalog minimized))

(* {1 Parser round-trip on random ASTs} *)

let prop_pretty_parse_roundtrip =
  QCheck.Test.make ~name:"pretty-print then parse is the identity" ~count:300
    arb_rule (fun rule ->
      match Qf_datalog.Parser.parse_rule (Qf_datalog.Pretty.rule_to_string rule) with
      | Ok rule' -> Ast.equal_rule rule rule'
      | Error e -> QCheck.Test.fail_report e)

(* {1 Classic a-priori agrees with brute force} *)

let prop_apriori_vs_bruteforce =
  QCheck.Test.make ~name:"classic a-priori pairs = brute-force counting"
    ~count:100 arb_basket_instance (fun (rel, threshold) ->
      let db = Qf_apriori.Apriori.db_of_relation rel in
      let mined =
        Qf_apriori.Apriori.frequent_of_size db ~support:threshold ~size:2
      in
      (* Brute force: count every pair directly. *)
      let items =
        List.sort_uniq compare
          (List.concat_map Qf_apriori.Itemset.to_list db)
      in
      let brute =
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j ->
                if i < j then begin
                  let set = Qf_apriori.Itemset.of_list [ i; j ] in
                  let support =
                    List.length
                      (List.filter (fun b -> Qf_apriori.Itemset.subset set b) db)
                  in
                  if support >= threshold then Some (set, support) else None
                end
                else None)
              items)
          items
      in
      List.length mined = List.length brute
      && List.for_all2
           (fun (f : Qf_apriori.Apriori.frequent) (set, support) ->
             Qf_apriori.Itemset.equal f.itemset set && f.support = support)
           mined brute)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_semi_anti_partition;
      prop_join_cardinality_bound;
      prop_project_idempotent;
      prop_group_filter_antitone_in_threshold;
      prop_fixpoint_transitive_closure;
      prop_storage_roundtrip;
      prop_code_records_roundtrip;
      prop_subquery_upper_bound;
      prop_eval_matches_reference;
      prop_minimize_preserves_semantics;
      prop_pretty_parse_roundtrip;
      prop_apriori_vs_bruteforce;
    ]
