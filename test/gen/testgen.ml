(* Shared random generators for the test suites.

   Everything here is deterministic given a seed: the property tests drive
   these through QCheck's own state, while the differential and
   observability suites use {!instance} to replay a fixed sequence of
   seeds, so a failure always names the instance that produced it. *)

module R = Qf_relational.Relation
module V = Qf_relational.Value
module Catalog = Qf_relational.Catalog
module Ast = Qf_datalog.Ast
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
