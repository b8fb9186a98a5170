module Value = Qf_relational.Value
module Schema = Qf_relational.Schema
module Relation = Qf_relational.Relation
module Index = Qf_relational.Index
module Catalog = Qf_relational.Catalog
module Statistics = Qf_relational.Statistics
module Dict = Qf_relational.Dict
module Chunkrel = Qf_relational.Chunkrel
module Buf = Chunkrel.Buf
module Sip = Qf_relational.Sip
module Aggregate = Qf_relational.Aggregate
module Spill = Qf_relational.Spill
module Obs = Qf_obs.Obs

exception Error of string

let log_src = Logs.Src.create "qf.eval" ~doc:"Datalog evaluation"

module Log = (val Logs.src_log log_src)

let errorf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let relation_for catalog (a : Ast.atom) =
  match Catalog.find_opt catalog a.pred with
  | None -> errorf "unknown predicate %s" a.pred
  | Some rel ->
    if Relation.arity rel <> List.length a.args then
      errorf "predicate %s: arity mismatch (query %d, stored %d)" a.pred
        (List.length a.args) (Relation.arity rel);
    rel

module Envs = struct
  (* [slots] maps a binding key to its column in every row; rows all have
     width [List.length slots].

     All environments live in one flat dictionary-code array of stride
     [width]: the first [count * width] ints of [data], which may be
     longer (a step adopts its output buffer, spare capacity and all).
     Binding extension probes the {!Index} chains directly over code
     arrays and evaluates the filters fused into it on each candidate,
     writing accepted rows into one {!Chunkrel.Buf} — no per-row boxing
     anywhere on the hot path. *)
  type repr = { width : int; count : int; data : int array }
  type t = { slots : (string * int) list; repr : repr }

  let start () = { slots = []; repr = { width = 0; count = 1; data = [||] } }
  let bound_keys t = List.map fst t.slots
  let count t = t.repr.count
  let slot_of t key = List.assoc_opt key t.slots

  (* A step's output, [count] rows of [width] codes in a [Buf], is
     adopted without a copy unless more than half of its buffer is spare
     capacity. *)
  let adopt ~width count b =
    let data = Buf.backing b in
    let data =
      if Array.length data > 2 * Buf.length b then Buf.to_array b else data
    in
    { width; count; data }

  (* [filter_codes pred ~width ~count ~data] keeps the rows satisfying
     the predicate, which receives the row's base offset. *)
  let filter_codes pred ~width ~count ~data =
    let out = Buf.create (count * width) in
    let kept = ref 0 in
    for r = 0 to count - 1 do
      let base = r * width in
      if pred base then begin
        incr kept;
        for c = 0 to width - 1 do Buf.push out data.(base + c) done
      end
    done;
    adopt ~width !kept out

  (* Chain-walk membership over a full-arity code index: does any row of
     the indexed chunk match the probe codes exactly? *)
  let code_mem (ci : Index.t) probe =
    let nkeys = Array.length probe in
    let h = Chunkrel.hash_codes probe in
    let rec keys_eq row k =
      k >= nkeys
      || Array.unsafe_get (Array.unsafe_get ci.key_cols k) row
         = Array.unsafe_get probe k
         && keys_eq row (k + 1)
    in
    let rec walk j = j >= 0 && (keys_eq j 0 || walk ci.next.(j)) in
    walk ci.heads.(h land ci.mask)

  (* A transient full-arity index for membership filtering.  Built with
     [Index.build] directly, not through the catalog cache: the
     [index_cache.*] counters count the binding-extension lookups the
     optimizer and plan executor reason about, and a negation or
     semijoin probe is not one of them. *)
  let membership_index rel =
    Index.build rel (List.init (Relation.arity rel) Fun.id)

  (* {2 Filters}

     A negated or arithmetic literal is a predicate on a candidate row,
     given as the base offset of an environment row in [data] and a row
     of the matched tuple's chunk.  During binding extension the filters
     [run_body] fuses into it run on each candidate inside the probe loop,
     so a rejected candidate is never written out, merged or projected;
     on their own ({!filter_neg}, {!filter_cmp}) they run on environment
     rows alone.  [locate] finds a key in the candidate: [`Env s] reads
     slot [s] of the environment row, [`Fresh col] the matched tuple's
     column [col]. *)

  let locate ~slots ~width ~fill_cols term =
    let key = Ast.binding_key term in
    match List.assoc_opt key slots with
    | Some s when s < width -> `Env s
    | Some s -> `Fresh fill_cols.(s - width)
    | None -> errorf "unbound %s in non-positive subgoal" key

  (* Comparisons decode and use [Value.compare]; constants are hoisted. *)
  let code_cmp ~locate ~data left cmp right =
    let value_of = function
      | Ast.Const v -> fun (_ : int) (_ : int) -> v
      | (Ast.Var _ | Ast.Param _) as term -> (
        match locate term with
        | `Env s -> fun base _ -> Dict.decode (Array.unsafe_get data (base + s))
        | `Fresh col -> fun _ row -> Dict.decode (Array.unsafe_get col row))
    in
    let gl = value_of left and gr = value_of right in
    fun base row ->
      Ast.comparison_eval (Value.compare (gl base row) (gr base row)) cmp

  (* Negation probes [rel]'s membership index with the instantiated
     codes. *)
  let code_neg ~locate ~data rel (a : Ast.atom) =
    let ci = membership_index rel in
    let code_of = function
      | Ast.Const v ->
        let c = Dict.encode v in
        fun (_ : int) (_ : int) -> c
      | (Ast.Var _ | Ast.Param _) as term -> (
        match locate term with
        | `Env s -> fun base _ -> Array.unsafe_get data (base + s)
        | `Fresh col -> fun _ row -> Array.unsafe_get col row)
    in
    let codes = Array.of_list (List.map code_of a.args) in
    let n = Array.length codes in
    let probe = Array.make n 0 in
    fun base row ->
      for k = 0 to n - 1 do
        probe.(k) <- (Array.unsafe_get codes k) base row
      done;
      not (code_mem ci probe)

  (* Filter environments by such a predicate over their rows alone. *)
  let filter_env t mk_pred =
    let { width; count; data } = t.repr in
    let pred =
      mk_pred ~locate:(locate ~slots:t.slots ~width ~fill_cols:[||]) ~data
    in
    { t with repr = filter_codes (fun base -> pred base 0) ~width ~count ~data }

  let filter_neg catalog t (a : Ast.atom) =
    let rel = relation_for catalog a in
    filter_env t (fun ~locate ~data -> code_neg ~locate ~data rel a)

  let filter_cmp t left cmp right =
    filter_env t (fun ~locate ~data -> code_cmp ~locate ~data left cmp right)

  let not_a_filter (a : Ast.atom) =
    invalid_arg ("Envs: positive subgoal " ^ a.pred ^ " used as a filter")

  let filter catalog t = function
    | Ast.Neg a -> filter_neg catalog t a
    | Ast.Cmp (l, c, r) -> filter_cmp t l c r
    | Ast.Pos a -> not_a_filter a

  (* How each argument position of an atom is consumed given current slots:
     part of the lookup key, a fresh binding, or an intra-tuple check
     against a fresh binding made at an earlier position. *)
  type arg_role =
    | Key_const of Value.t
    | Key_slot of int  (** row column *)
    | Bind_new  (** first occurrence of an unbound key *)
    | Check_new of int  (** later occurrence; index into the new-values list *)

  let analyze_args t (a : Ast.atom) =
    let fresh = ref [] in
    let roles =
      List.map
        (fun arg ->
          match arg with
          | Ast.Const v -> Key_const v
          | Ast.Var _ | Ast.Param _ -> (
            let key = Ast.binding_key arg in
            match slot_of t key with
            | Some s -> Key_slot s
            | None -> (
              match
                List.find_index (fun k -> String.equal k key) (List.rev !fresh)
              with
              | Some i -> Check_new i
              | None ->
                fresh := key :: !fresh;
                Bind_new)))
        a.args
    in
    roles, List.rev !fresh

  (* A probe loop's tallies: [emitted] rows, [candidates] key-matched
     tuples, [rejected] of them by a SIP reducer, [dropped] by a fused
     filter. *)
  type tally = {
    emitted : int;
    candidates : int;
    rejected : int;
    dropped : int;
  }

  (* A binding extension, set up: the extended slots (slot [width + i]
     is the matched tuple's column [fill_cols.(i)]) and the probe loop
     over the environment rows, which hands each accepted candidate
     to [emit base row] — the environment row's base offset and the
     matched tuple's row.  What [emit] does is the only difference
     between writing the extension out ({!extend}) and counting a FILTER
     step's groups in place ([feed], from [add_rule]). *)
  type probe = {
    slots : (string * int) list;
    fill_cols : int array array;
    scan : emit:(int -> int -> unit) -> tally;
  }

  (* Sideways-information-passing at binding extension: [sip] maps a
     binding key about to be bound ([Bind_new]) to a reducer
     over-approximating the values that can survive the rest of the rule
     (in practice: the parameter column of a materialized [ok] step whose
     subgoal is still in the body).  A candidate match whose fresh value
     fails its reducer is dropped before the row is emitted; the
     ok-subgoal join would have dropped it later anyway, so results are
     unchanged — only the intermediate row count shrinks.

     Rejections are tallied in the probe loop and flushed as one
     [sip.rows_pruned] count.  The reducers run before the fused
     [filters], so the count does not depend on them. *)
  let prepare ~sip ~filters catalog t (a : Ast.atom) =
    let rel = relation_for catalog a in
    let roles, fresh_keys = analyze_args t a in
    let key_positions =
      List.concat
        (List.mapi
           (fun i role ->
             match role with
             | Key_const _ | Key_slot _ -> [ i ]
             | Bind_new | Check_new _ -> [])
           roles)
    in
    (* Memoized through the catalog: FILTER steps, optimizer probes and
       repeated runs against the same stored relations all share built
       indexes (invalidated by relation version). *)
    let ci = Catalog.index catalog rel key_positions in
    let { width; count; data } = t.repr in
    (* For each matching tuple: positions to copy into new slots, and
       positions to check for intra-tuple repeated fresh variables. *)
    let fills = ref [] and checks = ref [] in
    List.iteri
      (fun pos role ->
        match role with
        | Bind_new -> fills := pos :: !fills
        | Check_new i -> checks := (pos, i) :: !checks
        | Key_const _ | Key_slot _ -> ())
      roles;
    let fills = List.rev !fills and checks = List.rev !checks in
    (* Reducers aligned with the fresh bindings: [(index into the
       fresh-values list, reducer)]. *)
    let sip_checks =
      if sip = [] then []
      else
        List.mapi (fun i key -> i, List.assoc_opt key sip) fresh_keys
        |> List.filter_map (fun (i, s) -> Option.map (fun s -> i, s) s)
    in
    let slots =
      t.slots @ List.mapi (fun i key -> key, width + i) fresh_keys
    in
    (* The probe key for an environment is its slot codes plus
       pre-encoded constant codes, hashed exactly as the index hashed its
       key columns ([Chunkrel.hash_codes] = [Chunkrel.hash_key] for equal
       keys). *)
    let key_specs =
      Array.of_list
        (List.filter_map
           (function
             | Key_const v -> Some (`Const (Dict.encode v))
             | Key_slot s -> Some (`Slot s)
             | Bind_new | Check_new _ -> None)
           roles)
    in
    let nkeys = Array.length key_specs in
    let chunk_cols = ci.Index.chunk.Chunkrel.cols in
    let fill_cols =
      Array.of_list (List.map (fun pos -> chunk_cols.(pos)) fills)
    in
    (* An intra-tuple repeat check compares two columns of the *same*
       candidate row, so it needs no per-row fresh-value staging. *)
    let check_pairs =
      Array.of_list
        (List.map
           (fun (pos, i) -> chunk_cols.(pos), fill_cols.(i))
           checks)
    in
    let nchecks = Array.length check_pairs in
    let sip_cols =
      Array.of_list (List.map (fun (i, s) -> fill_cols.(i), s) sip_checks)
    in
    let nsips = Array.length sip_cols in
    let locate = locate ~slots ~width ~fill_cols in
    let preds =
      Array.of_list
        (List.map
           (function
             | Ast.Cmp (l, c, r) -> code_cmp ~locate ~data l c r
             | Ast.Neg a ->
               code_neg ~locate ~data (relation_for catalog a) a
             | Ast.Pos a -> not_a_filter a)
           filters)
    in
    let scan ~emit =
      let emitted = ref 0 and candidates = ref 0 in
      let rejected = ref 0 and dropped = ref 0 in
      let probe = Array.make nkeys 0 in
      let npreds = Array.length preds in
      let rec keys_eq row k =
        k >= nkeys
        || Array.unsafe_get (Array.unsafe_get ci.Index.key_cols k) row
           = Array.unsafe_get probe k
           && keys_eq row (k + 1)
      in
      let rec checks_ok row c =
        c >= nchecks
        ||
        let ca, cb = Array.unsafe_get check_pairs c in
        Array.unsafe_get ca row = Array.unsafe_get cb row
        && checks_ok row (c + 1)
      in
      let rec sip_ok row k =
        k >= nsips
        ||
        let col, s = Array.unsafe_get sip_cols k in
        Sip.mem s (Array.unsafe_get col row) && sip_ok row (k + 1)
      in
      let rec preds_ok base row f =
        f >= npreds
        || (Array.unsafe_get preds f) base row && preds_ok base row (f + 1)
      in
      for r = 0 to count - 1 do
        let base = r * width in
        for k = 0 to nkeys - 1 do
          probe.(k) <-
            (match Array.unsafe_get key_specs k with
            | `Const c -> c
            | `Slot s -> Array.unsafe_get data (base + s))
        done;
        let h = Chunkrel.hash_codes probe in
        let j = ref ci.Index.heads.(h land ci.Index.mask) in
        while !j >= 0 do
          let row = !j in
          if keys_eq row 0 then begin
            incr candidates;
            if checks_ok row 0 then
              if not (sip_ok row 0) then incr rejected
              else if not (preds_ok base row 0) then incr dropped
              else begin
                incr emitted;
                emit base row
              end
          end;
          j := ci.Index.next.(row)
        done
      done;
      if nsips > 0 then Obs.count "sip.rows_pruned" !rejected;
      {
        emitted = !emitted;
        candidates = !candidates;
        rejected = !rejected;
        dropped = !dropped;
      }
    in
    { slots; fill_cols; scan }

  (* Write the extension out: the environment row and the fresh columns
     of every accepted candidate, pushed into one buffer. *)
  let extend ~sip ~filters catalog t a =
    let p = prepare ~sip ~filters catalog t a in
    let { width; count; data } = t.repr in
    let n_fresh = Array.length p.fill_cols in
    let new_width = width + n_fresh in
    let out = Buf.create (count * new_width) in
    let tally =
      p.scan ~emit:(fun base row ->
          for c = 0 to width - 1 do
            Buf.push out (Array.unsafe_get data (base + c))
          done;
          for k = 0 to n_fresh - 1 do
            Buf.push out (Array.unsafe_get (Array.unsafe_get p.fill_cols k) row)
          done)
    in
    { slots = p.slots; repr = adopt ~width:new_width tally.emitted out }, tally

  (* One [eval.extend] span per positive subgoal, only when tracing:
     rows in, key-matched candidates, rows out (emitted), and the
     candidates the fused filters dropped. *)
  let extend_span (a : Ast.atom) ~rows_in run =
    if not (Obs.enabled ()) then fst (run ())
    else
      Obs.with_span "eval.extend" (fun () ->
          let result, tally = run () in
          Obs.set_attr "pred" (Obs.Str a.pred);
          Obs.set_attr "rows_in" (Obs.Int rows_in);
          Obs.set_attr "candidates" (Obs.Int tally.candidates);
          Obs.set_attr "rows_out" (Obs.Int tally.emitted);
          Obs.set_attr "filtered" (Obs.Int tally.dropped);
          result)

  let extend_pos ?(sip = []) ?(filters = []) catalog t (a : Ast.atom) =
    extend_span a ~rows_in:(count t) (fun () ->
        extend ~sip ~filters catalog t a)

  let key_positions t keys =
    List.map
      (fun key ->
        match slot_of t key with
        | Some s -> s
        | None -> errorf "Envs: unbound key %s" key)
      keys

  let semijoin t ~keys ~keep =
    let positions = Array.of_list (key_positions t keys) in
    let { width; count; data } = t.repr in
    let ci = membership_index keep in
    let probe = Array.make (Array.length positions) 0 in
    let pred base =
      for k = 0 to Array.length positions - 1 do
        probe.(k) <- Array.unsafe_get data (base + positions.(k))
      done;
      code_mem ci probe
    in
    { t with repr = filter_codes pred ~width ~count ~data }
end

(* {1 Literal ordering} *)

let literal_keys lit =
  Ast.literal_vars lit @ List.map (fun p -> "$" ^ p) (Ast.literal_params lit)

let atom_keys (a : Ast.atom) =
  List.filter_map
    (function
      | (Ast.Var _ | Ast.Param _) as t -> Some (Ast.binding_key t)
      | Ast.Const _ -> None)
    a.args

let is_bound bound = function
  | Ast.Const _ -> true
  | (Ast.Var _ | Ast.Param _) as t -> List.mem (Ast.binding_key t) bound

let rec remove_first (a : Ast.atom) = function
  | [] -> []
  | Ast.Pos a' :: rest when Ast.equal_atom a' a -> rest
  | lit :: rest -> lit :: remove_first a rest

let greedy_order ~matches body =
  let rec loop bound remaining ordered =
    if remaining = [] then List.rev ordered
    else begin
      (* First flush every Neg/Cmp whose keys are all bound. *)
      let ready, rest =
        List.partition
          (fun lit ->
            match lit with
            | Ast.Pos _ -> false
            | Ast.Neg _ | Ast.Cmp _ ->
              List.for_all (fun k -> List.mem k bound) (literal_keys lit))
          remaining
      in
      if ready <> [] then
        loop bound rest
          (List.rev_append (List.map (fun lit -> bound, lit) ready) ordered)
      else begin
        (* Pick the positive subgoal with the fewest estimated matches;
           on a tie, the one with more bound (or constant) positions. *)
        let bound_positions (a : Ast.atom) =
          List.fold_left
            (fun n arg -> if is_bound bound arg then n + 1 else n)
            0 a.args
        in
        let best =
          List.fold_left
            (fun acc lit ->
              match lit with
              | Ast.Neg _ | Ast.Cmp _ -> acc
              | Ast.Pos a -> (
                let est = matches bound a in
                match acc with
                | Some (b, best_est)
                  when not
                         (est < best_est
                         || est = best_est
                            && bound_positions a > bound_positions b) ->
                  acc
                | _ -> Some (a, est)))
            None rest
        in
        match best with
        | None ->
          errorf "greedy_order: non-positive subgoals with unbound variables"
        | Some (a, _) ->
          loop
            (List.sort_uniq String.compare (bound @ atom_keys a))
            (remove_first a rest)
            ((bound, Ast.Pos a) :: ordered)
      end
    end
  in
  loop [] body []

(* Estimated number of index matches per environment for [atom] given the
   bound-key set: |R| divided by the distinct counts of the columns at
   bound (or constant) positions, assuming independence. *)
let estimate_matches catalog bound (a : Ast.atom) =
  let columns = Schema.columns (Relation.schema (relation_for catalog a)) in
  let stats = Catalog.stats catalog a.pred in
  List.fold_left2
    (fun est arg column ->
      if is_bound bound arg then
        est /. float_of_int (max 1 (Statistics.distinct stats column))
      else est)
    (float_of_int (Statistics.cardinality stats))
    a.args columns

let order_body catalog (r : Ast.rule) =
  (match Safety.check r with
  | Ok () -> ()
  | Error e -> raise (Error e));
  let ordered =
    List.map snd (greedy_order ~matches:(estimate_matches catalog) r.body)
  in
  Log.debug (fun m ->
      m "join order for %s: %s" r.head.pred
        (String.concat " ; " (List.map Pretty.literal_to_string ordered)));
  ordered

(* {1 Whole-rule evaluation} *)

let unique_names names =
  let taken = Hashtbl.create 8 in
  List.iter (fun name -> Hashtbl.replace taken name ()) names;
  let first = Hashtbl.create 8 in
  List.map
    (fun name ->
      if not (Hashtbl.mem first name) then begin
        Hashtbl.replace first name ();
        name
      end
      else begin
        let rec fresh k =
          let candidate = Printf.sprintf "%s_%d" name k in
          if Hashtbl.mem taken candidate then fresh (k + 1) else candidate
        in
        let renamed = fresh 2 in
        Hashtbl.replace taken renamed ();
        renamed
      end)
    names

let head_columns (r : Ast.rule) =
  unique_names
    (List.mapi
       (fun i t ->
         match t with
         | Ast.Var v -> v
         | Ast.Const _ -> Printf.sprintf "c%d" i
         | Ast.Param p -> errorf "parameter $%s in head" p)
       r.head.args)

(* The ordered body as evaluation steps: each positive subgoal with the
   negated and arithmetic literals [order_body] flushed directly after it
   (all bound once it is), fused into its binding extension.  A literal
   ready before any positive subgoal (constants only) is a step of its
   own. *)
let fuse_filters ordered =
  let rec steps = function
    | [] -> []
    | Ast.Pos a :: rest ->
      let rec take acc = function
        | ((Ast.Neg _ | Ast.Cmp _) as lit) :: rest -> take (lit :: acc) rest
        | rest -> List.rev acc, rest
      in
      let filters, rest = take [] rest in
      `Extend (a, filters) :: steps rest
    | lit :: rest -> `Filter lit :: steps rest
  in
  steps ordered

let run_steps ?sip catalog steps =
  List.fold_left
    (fun envs step ->
      (* Step boundaries are the evaluator's cancellation checkpoints:
         a governed deadline interrupts a rule between joins (one atomic
         load per step when ungoverned). *)
      Qf_governor.Governor.check ();
      match step with
      | `Extend (a, filters) -> Envs.extend_pos ?sip ~filters catalog envs a
      | `Filter lit -> Envs.filter catalog envs lit)
    (Envs.start ()) steps

let run_body ?sip catalog (r : Ast.rule) =
  run_steps ?sip catalog (fuse_filters (order_body catalog r))

let head_keys (r : Ast.rule) =
  List.map
    (fun t ->
      match t with
      | Ast.Var _ -> `Key (Ast.binding_key t)
      | Ast.Const v -> `Const v
      | Ast.Param p -> errorf "parameter $%s in head" p)
    r.head.args

let is_param key = String.length key > 0 && key.[0] = '$'

let bound_params slots =
  List.sort String.compare (List.filter is_param (List.map fst slots))

(* Project environments onto their answer rows: every bound parameter
   (sorted), then the head, a head constant as a column of its code.

   Environments are always distinct: relations are sets, and two matches
   of one environment differ in a freshly bound value, because every
   other position of the matched tuple is a lookup key or checked against
   a fresh binding; filters keep distinctness.  So when the answer keys
   cover every bound slot once, the rows are distinct without a dedupe
   pass, which is then skipped.  Keys that repeat or leave out a bound
   key are deduplicated in one open-addressing pass. *)
let project_answers (envs : Envs.t) (r : Ast.rule) =
  let params = bound_params envs.slots in
  let answer = List.map (fun k -> `Key k) params @ head_keys r in
  let { Envs.width; count; data } = envs.repr in
  let slots =
    Envs.key_positions envs
      (List.filter_map (function `Key k -> Some k | `Const _ -> None) answer)
  in
  let cols =
    Array.of_list
      (List.map
         (function
           | `Key k ->
             let s = List.assoc k envs.slots in
             Array.init count (fun i -> Array.unsafe_get data ((i * width) + s))
           | `Const v -> Array.make count (Dict.encode v))
         answer)
  in
  let nrows, cols =
    if List.sort Int.compare slots = List.init width Fun.id then count, cols
    else
      let idxs = Chunkrel.distinct_rows cols count in
      Array.length idxs, Chunkrel.gather_cols cols idxs
  in
  Relation.of_chunkrel
    (Schema.of_list (params @ head_columns r))
    { Chunkrel.nrows; cols }

let tabulate ?sip catalog (r : Ast.rule) =
  project_answers (run_body ?sip catalog r) r

let answers catalog ~bindings (r : Ast.rule) =
  let r' = Ast.subst_rule bindings r in
  (match Ast.rule_params r' with
  | [] -> ()
  | p :: _ -> errorf "answers: parameter $%s left unbound" p);
  project_answers (run_body catalog r') r'

(* {1 FILTER steps}

   A FILTER counts its groups in one code-keyed {!Aggregate.table}, and
   one routine, [feed], fills it: a rule's last positive subgoal hands it
   each candidate its probe loop accepts (key match, repeated-variable
   checks, SIP reducers, fused filters) — no environment row, no
   tabulated relation, no second grouping pass — and [add_envs] hands it
   each row of an environment set.

   The table counts the distinct answer rows the tabulation would hold:
   every bound parameter (sorted), then the head, positionally.  When one
   rule feeds the table and its bound slots are exactly the parameters
   and the head variables, every row fed is a distinct one
   ([project_answers]'s argument), so it is counted as it comes.
   Otherwise a code set over the answer rows lets only a row's first
   occurrence through, across the rules of a union too, which is their
   tabulations' positional rename.  A head constant adds its code to the
   answer row, and as a [SUM]/[MIN]/[MAX] measure contributes its code.

   Under a governor with a finite memory budget the answer rows are kept
   as a relation instead and grouped by {!Aggregate.group_filter_report},
   so the grouping pass can spill; [groups] decides that, once.

   The last subgoal runs in environment order: groups open, and [SUM]
   adds, in the order the tabulation would have listed its rows. *)

type groups = {
  keys : string list;
  func : Aggregate.func;
  bounding : bool;  (** see {!Aggregate.table} *)
  measure : int;  (** the measure's head position, [-1] for [COUNT] *)
  shared : bool;  (** several rules feed the table *)
  budgeted : bool;
  mutable table : Aggregate.table option;  (** made by the first feed *)
  mutable seen : Aggregate.table option;  (** answer rows counted *)
  mutable rows : int;  (** answer rows counted *)
  mutable tabulated : Relation.t option;  (** the answer rows, if budgeted *)
}

let groups ?(bounding = false) (q : Ast.query) ~keys ~func =
  let measure =
    match func, q with
    | Aggregate.Count, _ | _, [] -> -1
    | (Sum c | Min c | Max c), r :: _ -> (
      match List.find_index (String.equal c) (head_columns r) with
      | Some i -> i
      | None -> errorf "FILTER: %s is not a head column" c)
  in
  {
    keys;
    func;
    bounding;
    measure;
    shared = List.compare_length_with q 1 > 0;
    budgeted = Option.is_some (Spill.budgeted ());
    table = None;
    seen = None;
    rows = 0;
    tabulated = None;
  }

let table g ~expected =
  match g.table with
  | Some t -> t
  | None ->
    let t =
      Aggregate.table ~bounding:g.bounding g.func ~nkeys:(List.length g.keys)
        ~expected
    in
    g.table <- Some t;
    t

(* The one routine filling a FILTER's group table: [feed g r ~slots ~width
   ~data ~fill_cols ~expected] takes a candidate of rule [r] — the base
   offset of an environment row in [data] and a row of the matched
   tuple's fresh columns [fill_cols] (slot [s >= width] is fresh column
   [s - width]) — to its group.  [expected] sizes a new table. *)
let feed g (r : Ast.rule) ~slots ~width ~data ~fill_cols ~expected =
  let table = table g ~expected in
  let slot key =
    match List.assoc_opt key slots with
    | Some s -> s
    | None -> errorf "FILTER: unbound key %s" key
  in
  let code_at s base row =
    if s < width then Array.unsafe_get data (base + s)
    else Array.unsafe_get (Array.unsafe_get fill_cols (s - width)) row
  in
  let head = head_keys r in
  (* The measure's slot, or [-1] and the head constant's code. *)
  let measure_slot, measure_code =
    if g.measure < 0 then -1, 0
    else
      match List.nth head g.measure with
      | `Key k -> slot k, 0
      | `Const v -> -1, Dict.encode v
  in
  let group_slots = Array.of_list (List.map slot g.keys) in
  let group = Array.make (Array.length group_slots) 0 in
  let count_row base row =
    for k = 0 to Array.length group_slots - 1 do
      Array.unsafe_set group k
        (code_at (Array.unsafe_get group_slots k) base row)
    done;
    Aggregate.add table group
      (if measure_slot < 0 then measure_code
       else code_at measure_slot base row);
    g.rows <- g.rows + 1
  in
  let answer = List.map (fun k -> `Key k) (bound_params slots) @ head in
  let vars =
    List.filter_map (function `Key k -> Some k | `Const _ -> None) answer
  in
  if
    (not g.shared)
    && List.compare_lengths (List.sort_uniq String.compare vars) slots = 0
  then count_row
  else begin
    (* A head constant's code is written once; each row fills the rest. *)
    let answer_row =
      Array.of_list
        (List.map (function `Key _ -> 0 | `Const v -> Dict.encode v) answer)
    in
    let keyed =
      List.concat
        (List.mapi
           (fun i -> function `Key k -> [ i, slot k ] | `Const _ -> [])
           answer)
    in
    let positions = Array.of_list (List.map fst keyed) in
    let answer_slots = Array.of_list (List.map snd keyed) in
    if g.seen = None then
      g.seen <-
        Some (Aggregate.table Count ~nkeys:(Array.length answer_row) ~expected);
    let seen = Option.get g.seen in
    fun base row ->
      for k = 0 to Array.length positions - 1 do
        Array.unsafe_set answer_row
          (Array.unsafe_get positions k)
          (code_at (Array.unsafe_get answer_slots k) base row)
      done;
      let fresh = Aggregate.groups seen in
      if Aggregate.find seen answer_row = fresh then count_row base row
  end

let add_envs g (r : Ast.rule) (envs : Envs.t) =
  if g.budgeted then begin
    let rows = project_answers envs r in
    match g.tabulated with
    | Some acc -> Relation.add_all acc rows
    | None -> g.tabulated <- Some rows
  end
  else begin
    let { Envs.width; count; data } = envs.repr in
    let emit =
      feed g r ~slots:envs.slots ~width ~data ~fill_cols:[||] ~expected:count
    in
    for i = 0 to count - 1 do
      emit (i * width) 0
    done
  end

(* A rule's rows into [g]: in memory, straight from its last positive
   subgoal's probe loop; else (a finite budget, or no positive subgoal)
   from its environments. *)
let add_rule ?(sip = []) catalog g (r : Ast.rule) =
  match List.rev (fuse_filters (order_body catalog r)) with
  | `Extend (a, filters) :: prefix when not g.budgeted ->
    let envs = run_steps ~sip catalog (List.rev prefix) in
    Qf_governor.Governor.check ();
    let p = Envs.prepare ~sip ~filters catalog envs a in
    let { Envs.width; count; data } = envs.Envs.repr in
    let emit =
      feed g r ~slots:p.slots ~width ~data ~fill_cols:p.fill_cols
        ~expected:count
    in
    Envs.extend_span a ~rows_in:count (fun () ->
        (), p.scan ~emit)
  | steps -> add_envs g r (run_steps ~sip catalog (List.rev steps))

let filter_groups ?slack g ~threshold =
  match g.tabulated with
  | Some rel ->
    let survivors, groups =
      Aggregate.group_filter_report ~bounding:g.bounding ?slack rel
        ~keys:g.keys ~func:g.func ~threshold
    in
    survivors, Relation.cardinal rel, groups
  | None ->
    let survivors, groups =
      Aggregate.filter_table ?slack (table g ~expected:0) ~rows_in:g.rows
        ~keys:g.keys ~threshold
    in
    survivors, g.rows, groups

let supports catalog (r : Ast.rule) ~key =
  let g = { (groups [ r ] ~keys:[ key ] ~func:Count) with budgeted = false } in
  add_rule catalog g r;
  let t = table g ~expected:0 in
  Hashtbl.of_seq
    (Seq.init (Aggregate.groups t) (fun i ->
         ( Aggregate.key_code t i 0,
           Option.value (Value.to_float (Aggregate.value t i)) ~default:0. )))

let filter_query ?sip ?bounding catalog (q : Ast.query) ~keys ~func
    ~threshold =
  (match Ast.wf_query q with Ok () -> () | Error e -> raise (Error e));
  let g = groups ?bounding q ~keys ~func in
  List.iter (add_rule ?sip catalog g) q;
  filter_groups g ~threshold
