module Value = Qf_relational.Value
module Tuple = Qf_relational.Tuple
module Schema = Qf_relational.Schema
module Relation = Qf_relational.Relation
module Index = Qf_relational.Index
module Catalog = Qf_relational.Catalog
module Statistics = Qf_relational.Statistics
module Dict = Qf_relational.Dict
module Chunkrel = Qf_relational.Chunkrel
module Buf = Chunkrel.Buf
module Pool = Qf_exec_pool.Pool
module Sip = Qf_relational.Sip
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
     arrays and evaluates the filters fused into it on each candidate;
     parallel steps emit per-chunk {!Chunkrel.Buf}s merged by a single
     blit — no per-row boxing anywhere on the hot path. *)
  type repr = { width : int; count : int; data : int array }
  type t = { slots : (string * int) list; repr : repr }

  let start () = { slots = []; repr = { width = 0; count = 1; data = [||] } }
  let bound_keys t = List.map fst t.slots
  let count t = t.repr.count
  let slot_of t key = List.assoc_opt key t.slots

  (* {2 Step outputs}

     A step produces per-chunk [Buf]s (each an [(emitted rows) *
     stride] run of codes).  A single piece — every step on a one-domain
     pool or below the parallel threshold — is adopted without a copy,
     unless more than half of its buffer is spare capacity; several are
     merged with one pre-sized allocation and [Array.blit] per chunk.
     Either way the merge never boxes a row. *)

  let merge_code_chunks ~width pieces =
    match pieces with
    | [ (count, b) ] ->
      let data = Buf.backing b in
      let data =
        if Array.length data > 2 * Buf.length b then Buf.to_array b else data
      in
      { width; count; data }
    | _ ->
      let count = List.fold_left (fun acc (k, _) -> acc + k) 0 pieces in
      { width; count; data = Buf.concat (List.map snd pieces) }

  (* Run [run ~lo ~hi] over the rows [0, count): one chunk on a one-domain
     pool or below the parallel threshold, else pool-sized chunks. *)
  let code_chunks ~count run =
    let pool = Pool.default () in
    if Pool.size pool = 1 || count < Pool.par_threshold () then
      [ run ~lo:0 ~hi:count ]
    else Pool.run_chunks pool ~n:count run

  (* [filter_codes mk_pred ~width ~count ~data] keeps the rows satisfying
     the predicate ([mk_pred ()] is called once per chunk so predicates
     may own scratch buffers; the predicate receives the row's base
     offset). *)
  let filter_codes mk_pred ~width ~count ~data =
    let run ~lo ~hi =
      let pred = mk_pred () in
      let out = Buf.create ((hi - lo) * width) in
      let kept = ref 0 in
      for r = lo to hi - 1 do
        let base = r * width in
        if pred base then begin
          incr kept;
          for c = 0 to width - 1 do Buf.push out data.(base + c) done
        end
      done;
      !kept, out
    in
    merge_code_chunks ~width (code_chunks ~count run)

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
     column [col].  A predicate is built per chunk ([mk ()]) so it may own
     scratch space. *)

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
    fun () base row ->
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
    fun () ->
      let probe = Array.make n 0 in
      fun base row ->
        for k = 0 to n - 1 do
          probe.(k) <- (Array.unsafe_get codes k) base row
        done;
        not (code_mem ci probe)

  (* Filter environments by such a predicate over their rows alone. *)
  let filter_env t mk_pred =
    let { width; count; data } = t.repr in
    let mk =
      mk_pred ~locate:(locate ~slots:t.slots ~width ~fill_cols:[||]) ~data
    in
    let mk () =
      let pred = mk () in
      fun base -> pred base 0
    in
    { t with repr = filter_codes mk ~width ~count ~data }

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

  (* One chunk's output and tallies: [candidates] key-matched tuples,
     [rejected] of them by a SIP reducer, [dropped] by a fused filter. *)
  type piece = {
    emitted : int;
    out : Buf.buf;
    candidates : int;
    rejected : int;
    dropped : int;
  }

  (* Sideways-information-passing at binding extension: [sip] maps a
     binding key about to be bound ([Bind_new]) to a reducer
     over-approximating the values that can survive the rest of the rule
     (in practice: the parameter column of a materialized [ok] step whose
     subgoal is still in the body).  A candidate match whose fresh value
     fails its reducer is dropped before the row is emitted; the
     ok-subgoal join would have dropped it later anyway, so results are
     unchanged — only the intermediate row count shrinks.

     Rejections are tallied per chunk and flushed as a single
     [sip.rows_pruned] count: the set of key-matched candidates examined
     is the same under any chunking, so the total is deterministic across
     pool sizes (the invariant the differential suite pins down).  The
     reducers run before the fused [filters], so the count does not
     depend on them.

     Returns the extended set with the number of key-matched candidates
     and the number the fused filters dropped. *)
  let extend ~sip ~filters catalog t (a : Ast.atom) =
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
    let new_width = width + List.length fresh_keys in
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
    let n_fresh = Array.length fill_cols in
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
    let fused =
      Array.of_list
        (List.map
           (function
             | Ast.Cmp (l, c, r) -> code_cmp ~locate ~data l c r
             | Ast.Neg a ->
               code_neg ~locate ~data (relation_for catalog a) a
             | Ast.Pos a -> not_a_filter a)
           filters)
    in
    let run ~lo ~hi =
      let out = Buf.create ((hi - lo) * new_width) in
      let emitted = ref 0 and candidates = ref 0 in
      let rejected = ref 0 and dropped = ref 0 in
      let probe = Array.make nkeys 0 in
      let preds = Array.map (fun mk -> mk ()) fused in
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
      for r = lo to hi - 1 do
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
                for c = 0 to width - 1 do
                  Buf.push out (Array.unsafe_get data (base + c))
                done;
                for k = 0 to n_fresh - 1 do
                  Buf.push out
                    (Array.unsafe_get (Array.unsafe_get fill_cols k) row)
                done
              end
          end;
          j := ci.Index.next.(row)
        done
      done;
      {
        emitted = !emitted;
        out;
        candidates = !candidates;
        rejected = !rejected;
        dropped = !dropped;
      }
    in
    let pieces = code_chunks ~count run in
    let sum f = List.fold_left (fun acc p -> acc + f p) 0 pieces in
    let result =
      {
        slots;
        repr =
          merge_code_chunks ~width:new_width
            (List.map (fun p -> p.emitted, p.out) pieces);
      }
    in
    if sip_checks <> [] then
      Obs.count "sip.rows_pruned" (sum (fun p -> p.rejected));
    result, sum (fun p -> p.candidates), sum (fun p -> p.dropped)

  (* One [eval.extend] span per positive subgoal, only when tracing:
     rows in, key-matched candidates, rows out, and the candidates the
     fused filters dropped. *)
  let extend_pos ?(sip = []) ?(filters = []) catalog t (a : Ast.atom) =
    if not (Obs.enabled ()) then
      let result, _, _ = extend ~sip ~filters catalog t a in
      result
    else
      Obs.with_span "eval.extend" (fun () ->
          let result, candidates, dropped = extend ~sip ~filters catalog t a in
          Obs.set_attr "pred" (Obs.Str a.pred);
          Obs.set_attr "rows_in" (Obs.Int (count t));
          Obs.set_attr "candidates" (Obs.Int candidates);
          Obs.set_attr "rows_out" (Obs.Int (count result));
          Obs.set_attr "filtered" (Obs.Int dropped);
          result)

  let key_positions t keys =
    List.map
      (fun key ->
        match slot_of t key with
        | Some s -> s
        | None -> errorf "Envs.project: unbound key %s" key)
      keys

  (* Gather the projected columns out of the stride layout.  Unless
     [keys] covers every slot once (the rows are then distinct, see the
     interface), dedupe the code rows in one open-addressing pass.  Either
     way the relation gets an already-distinct chunk. *)
  let project t ~keys ~columns =
    let positions = key_positions t keys in
    let { width; count; data } = t.repr in
    let pcols =
      Array.of_list
        (List.map
           (fun p ->
             Array.init count (fun r -> Array.unsafe_get data ((r * width) + p)))
           positions)
    in
    let covers_all_slots =
      List.sort Int.compare positions = List.init width Fun.id
    in
    let nrows, cols =
      if covers_all_slots then count, pcols
      else
        let idxs = Chunkrel.distinct_rows pcols count in
        Array.length idxs, Chunkrel.gather_cols pcols idxs
    in
    Relation.of_chunkrel (Schema.of_list columns)
      { Chunkrel.nrows; cols }

  let semijoin t ~keys ~keep =
    let positions = Array.of_list (key_positions t keys) in
    let { width; count; data } = t.repr in
    let ci = membership_index keep in
    let mk_pred () =
      let probe = Array.make (Array.length positions) 0 in
      fun base ->
        for k = 0 to Array.length positions - 1 do
          probe.(k) <- Array.unsafe_get data (base + positions.(k))
        done;
        code_mem ci probe
    in
    { t with repr = filter_codes mk_pred ~width ~count ~data }
end

(* {1 Literal ordering} *)

let literal_keys lit =
  List.map (fun v -> v) (Ast.literal_vars lit)
  @ List.map (fun p -> "$" ^ p) (Ast.literal_params lit)

let atom_keys (a : Ast.atom) =
  List.filter_map
    (function
      | (Ast.Var _ | Ast.Param _) as t -> Some (Ast.binding_key t)
      | Ast.Const _ -> None)
    a.args

(* Estimated number of index matches per environment for [atom] given the
   bound-key set: |R| divided by the distinct counts of the columns at
   bound (or constant) positions, assuming independence. *)
let estimate_matches catalog bound (a : Ast.atom) =
  let rel = relation_for catalog a in
  let stats = Catalog.stats catalog a.pred in
  let columns = Schema.columns (Relation.schema rel) in
  let est = ref (float_of_int (Statistics.cardinality stats)) in
  let bound_positions = ref 0 in
  List.iteri
    (fun i arg ->
      let is_bound =
        match arg with
        | Ast.Const _ -> true
        | Ast.Var _ | Ast.Param _ -> List.mem (Ast.binding_key arg) bound
      in
      if is_bound then begin
        incr bound_positions;
        let d = Statistics.distinct stats (List.nth columns i) in
        est := !est /. float_of_int (max 1 d)
      end)
    a.args;
  !est, !bound_positions

let order_body catalog (r : Ast.rule) =
  (match Safety.check r with
  | Ok () -> ()
  | Error e -> raise (Error e));
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
      if ready <> [] then loop bound rest (List.rev_append ready ordered)
      else begin
        (* Pick the cheapest positive subgoal. *)
        let candidates =
          List.filter_map
            (function Ast.Pos a -> Some a | Ast.Neg _ | Ast.Cmp _ -> None)
            rest
        in
        match candidates with
        | [] ->
          errorf "order_body: non-positive subgoals with unbound variables"
        | _ ->
          let best =
            List.fold_left
              (fun acc a ->
                let est, bp = estimate_matches catalog bound a in
                match acc with
                | None -> Some (a, est, bp)
                | Some (_, best_est, best_bp) ->
                  if est < best_est || (est = best_est && bp > best_bp) then
                    Some (a, est, bp)
                  else acc)
              None candidates
          in
          let a, _, _ = Option.get best in
          let rest' =
            let removed = ref false in
            List.filter
              (fun lit ->
                match lit with
                | Ast.Pos a' when (not !removed) && Ast.equal_atom a' a ->
                  removed := true;
                  false
                | _ -> true)
              rest
          in
          loop
            (List.sort_uniq String.compare (bound @ atom_keys a))
            rest'
            (Ast.Pos a :: ordered)
      end
    end
  in
  let ordered = loop [] r.body [] in
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

let run_body ?sip catalog (r : Ast.rule) =
  List.fold_left
    (fun envs step ->
      (* Step boundaries are the evaluator's cancellation checkpoints:
         a governed deadline interrupts a rule between joins (one atomic
         load per step when ungoverned). *)
      Qf_governor.Governor.check ();
      match step with
      | `Extend (a, filters) -> Envs.extend_pos ?sip ~filters catalog envs a
      | `Filter lit -> Envs.filter catalog envs lit)
    (Envs.start ())
    (fuse_filters (order_body catalog r))

let head_keys (r : Ast.rule) =
  List.map
    (fun t ->
      match t with
      | Ast.Var _ -> `Key (Ast.binding_key t)
      | Ast.Const v -> `Const v
      | Ast.Param p -> errorf "parameter $%s in head" p)
    r.head.args

(* Project environments onto (group keys, head terms).  Head constants are
   materialized directly. *)
let project_with_consts envs ~group_keys ~group_columns (r : Ast.rule) =
  let head = head_keys r in
  let keys =
    group_keys
    @ List.filter_map (function `Key k -> Some k | `Const _ -> None) head
  in
  let columns =
    group_columns
    @ List.filteri
        (fun i _ ->
          match List.nth head i with `Key _ -> true | `Const _ -> false)
        (head_columns r)
  in
  let narrow = Envs.project envs ~keys ~columns in
  if List.for_all (function `Key _ -> true | `Const _ -> false) head then
    narrow
  else begin
    (* Re-insert constant head columns in position. *)
    let full_schema =
      Schema.of_list (group_columns @ head_columns r)
    in
    let out = Relation.create full_schema in
    let n_group = List.length group_columns in
    Relation.iter
      (fun tup ->
        let rest = ref (Tuple.to_list tup |> List.filteri (fun i _ -> i >= n_group)) in
        let prefix = Tuple.to_list tup |> List.filteri (fun i _ -> i < n_group) in
        let head_vals =
          List.map
            (function
              | `Const v -> v
              | `Key _ -> (
                match !rest with
                | v :: tl ->
                  rest := tl;
                  v
                | [] -> errorf "project_with_consts: internal arity error"))
            head
        in
        Relation.add out (Tuple.of_list (prefix @ head_vals)))
      narrow;
    out
  end

let param_keys_and_columns (r : Ast.rule) =
  let params = Ast.rule_params r in
  List.map (fun p -> "$" ^ p) params, List.map (fun p -> "$" ^ p) params

let tabulate ?sip catalog (r : Ast.rule) =
  let envs = run_body ?sip catalog r in
  let group_keys, group_columns = param_keys_and_columns r in
  project_with_consts envs ~group_keys ~group_columns r

let answers catalog ~bindings (r : Ast.rule) =
  let r' = Ast.subst_rule bindings r in
  (match Ast.rule_params r' with
  | [] -> ()
  | p :: _ -> errorf "answers: parameter $%s left unbound" p);
  let envs = run_body catalog r' in
  project_with_consts envs ~group_keys:[] ~group_columns:[] r'

let tabulate_query ?sip catalog (q : Ast.query) =
  (match Ast.wf_query q with Ok () -> () | Error e -> raise (Error e));
  match q with
  | [] -> assert false
  | first :: rest ->
    let acc = tabulate ?sip catalog first in
    List.fold_left
      (fun acc r ->
        Qf_governor.Governor.check ();
        let next = tabulate ?sip catalog r in
        (* Positional rename: arities agree by wf_query. *)
        Relation.add_all acc next;
        acc)
      acc rest
