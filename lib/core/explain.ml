module Pretty = Qf_datalog.Pretty

let pp_params ppf params =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       (fun ppf p -> Format.fprintf ppf "$%s" p))
    params

let pp_step ~filter ~head ppf (s : Plan.step) =
  Format.fprintf ppf "@[<v 4>%s%a := FILTER(%a,@,%a,@,%a@]@,);" s.name
    pp_params s.params pp_params s.params Pretty.pp_query s.query
    (Filter.pp ~head) filter

let pp_plan ppf (plan : Plan.t) =
  let head = Flock.head_name plan.flock in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,@,")
       (pp_step ~filter:plan.flock.filter ~head))
    (Plan.all_steps plan)

let plan_to_string plan = Format.asprintf "%a" pp_plan plan

(* A step is shown with every parameter list its ok subgoals carry, its
   own first: an α-class stands for all of its members, [ok_1($1|$2|$3)].
   A legal ok subgoal's arguments are all parameters. *)
let plan_summary (plan : Plan.t) =
  let module Ast = Qf_datalog.Ast in
  let atoms =
    List.concat_map
      (fun (s : Plan.step) -> List.concat_map Ast.positive_atoms s.query)
      (Plan.all_steps plan)
  in
  Plan.all_steps plan
  |> List.map (fun (s : Plan.step) ->
         let lists =
           List.fold_left
             (fun acc (a : Ast.atom) ->
               if not (String.equal a.pred s.name) then acc
               else
                 let l = List.map Ast.binding_key a.args in
                 if List.mem l acc then acc else acc @ [ l ])
             [ List.map (fun p -> "$" ^ p) s.params ]
             atoms
         in
         Printf.sprintf "%s(%s)" s.name
           (String.concat "|" (List.map (String.concat ",") lists)))
  |> String.concat " -> "

(* {1 Profiled execution (flockc explain --profile)} *)

module Obs = Qf_obs.Obs

type step_profile = {
  name : string;
  params : string list;
  rows_in : int;
  groups : int;
  rows_out : int;
  seconds : float;
  est_rows : float option;
  est_groups : float option;
  bound_rows : float option;
  bound_groups : float option;
  memo_hit : bool;
  sip_pruned : int;
}

type profile = {
  summary : string;
  steps : step_profile list;
  result_rows : int;
  total_seconds : float;
  counters : (string * int) list;
  governor : Qf_governor.Governor.stats option;
}

let profile ?(clamps = []) ?governor catalog (plan : Plan.t) =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let t0 = Obs.now () in
      let report =
        let run () = Plan_exec.run_with_report catalog plan in
        match governor with
        | None -> run ()
        | Some g -> Qf_governor.Governor.with_ctx g run
      in
      let total_seconds = Obs.now () -. t0 in
      let obs = Obs.report () in
      let estimates =
        match Cost.plan_step_estimates ~clamps (Qf_datalog.Sizes.of_catalog catalog) plan with
        | ests -> ests
        | exception Failure _ -> []
      in
      let est_for name =
        List.find_opt
          (fun (e : Cost.step_estimate) -> String.equal e.Cost.step name)
          estimates
      in
      let steps =
        List.map2
          (fun (s : Plan.step) (r : Plan_exec.step_report) ->
            let est = est_for s.name in
            let bounds = List.assoc_opt s.name clamps in
            {
              name = s.name;
              params = s.params;
              rows_in = r.Plan_exec.tabulated_rows;
              groups = r.Plan_exec.groups;
              rows_out = r.Plan_exec.survivors;
              seconds = r.Plan_exec.seconds;
              est_rows = Option.map (fun (e : Cost.step_estimate) -> e.Cost.est_rows) est;
              est_groups =
                Option.map (fun (e : Cost.step_estimate) -> e.Cost.est_groups) est;
              bound_rows = Option.map snd bounds;
              bound_groups = Option.map fst bounds;
              memo_hit = r.Plan_exec.memo_hit;
              sip_pruned = r.Plan_exec.sip_pruned;
            })
          (Plan.all_steps plan) report.Plan_exec.steps
      in
      let counters = obs.Obs.counters in
      {
        summary = plan_summary plan;
        steps;
        result_rows =
          Qf_relational.Relation.cardinal report.Plan_exec.result;
        total_seconds;
        counters;
        governor = Option.map Qf_governor.Governor.stats governor;
      })

let profile_text ?(redact_timings = false) (p : profile) =
  let buf = Buffer.create 1024 in
  let time s = if redact_timings then "-" else Printf.sprintf "%.6f" s in
  let est = function
    | None -> "-"
    | Some f ->
      if Float.is_finite f then Printf.sprintf "%.1f" f else "inf"
  in
  Buffer.add_string buf (Printf.sprintf "plan: %s\n\n" p.summary);
  let name_width =
    List.fold_left
      (fun acc (s : step_profile) -> max acc (String.length s.name))
      (String.length "step") p.steps
  in
  (* Certified-bound columns appear only when bounds were supplied, so
     unclamped profiles keep the original layout. *)
  let have_bounds =
    List.exists
      (fun (s : step_profile) ->
        s.bound_rows <> None || s.bound_groups <> None)
      p.steps
  in
  let bound_cols a b = if have_bounds then Printf.sprintf " %10s %10s" a b else "" in
  Buffer.add_string buf
    (Printf.sprintf "%-*s %10s %10s%s %10s %10s %10s %10s %5s %12s\n"
       name_width "step" "est_grps" "est_rows"
       (bound_cols "cert_grps" "cert_rows")
       "rows_in" "groups" "rows_out" "sip_prune" "memo" "time_s");
  List.iter
    (fun (s : step_profile) ->
      Buffer.add_string buf
        (Printf.sprintf "%-*s %10s %10s%s %10d %10d %10d %10d %5s %12s\n"
           name_width s.name (est s.est_groups) (est s.est_rows)
           (bound_cols (est s.bound_groups) (est s.bound_rows))
           s.rows_in s.groups s.rows_out s.sip_pruned
           (if s.memo_hit then "hit" else "-")
           (time s.seconds)))
    p.steps;
  Buffer.add_string buf
    (Printf.sprintf "\nresult rows: %d\ntotal time_s: %s\n" p.result_rows
       (time p.total_seconds));
  (* Governed profiles carry one extra summary line; ungoverned output
     stays byte-identical to the pre-governor format. *)
  (match p.governor with
  | None -> ()
  | Some (g : Qf_governor.Governor.stats) ->
    Buffer.add_string buf
      (Printf.sprintf
         "governor: peak_bytes=%d spill_partitions=%d spilled_bytes=%d \
          spilled_rows=%d\n"
         g.peak_bytes g.spill_partitions g.spilled_bytes g.spilled_rows));
  if p.counters <> [] then begin
    Buffer.add_string buf "\ncounters:\n";
    List.iter
      (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %s = %d\n" k v))
      p.counters
  end;
  Buffer.contents buf

let json_float f =
  if not (Float.is_finite f) then "\"inf\""
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let profile_json ?(redact_timings = false) (p : profile) =
  let buf = Buffer.create 1024 in
  let time s =
    if redact_timings then "null" else json_float s
  in
  let opt_float = function None -> "null" | Some f -> json_float f in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"plan\": \"%s\",\n" (Obs.json_escape p.summary));
  Buffer.add_string buf "  \"steps\": [\n";
  List.iteri
    (fun i (s : step_profile) ->
      let bounds =
        (* Only clamped profiles carry the certified-bound fields, so
           unclamped JSON stays byte-identical to the pre-bound format. *)
        match s.bound_groups, s.bound_rows with
        | None, None -> ""
        | g, r ->
          Printf.sprintf ", \"bound_groups\": %s, \"bound_rows\": %s"
            (opt_float g) (opt_float r)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"params\": [%s], \"est_groups\": %s, \
            \"est_rows\": %s%s, \"rows_in\": %d, \"groups\": %d, \"rows_out\": \
            %d, \"sip_pruned\": %d, \"memo_hit\": %b, \"seconds\": %s}%s\n"
           (Obs.json_escape s.name)
           (String.concat ", "
              (List.map (fun q -> "\"" ^ Obs.json_escape q ^ "\"") s.params))
           (opt_float s.est_groups) (opt_float s.est_rows) bounds s.rows_in
           s.groups s.rows_out s.sip_pruned s.memo_hit (time s.seconds)
           (if i = List.length p.steps - 1 then "" else ",")))
    p.steps;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"result_rows\": %d,\n" p.result_rows);
  Buffer.add_string buf
    (Printf.sprintf "  \"total_seconds\": %s,\n" (time p.total_seconds));
  (match p.governor with
  | None -> ()
  | Some (g : Qf_governor.Governor.stats) ->
    Buffer.add_string buf
      (Printf.sprintf
         "  \"governor\": {\"peak_bytes\": %d, \"spill_partitions\": %d, \
          \"spilled_bytes\": %d, \"spilled_rows\": %d},\n"
         g.peak_bytes g.spill_partitions g.spilled_bytes g.spilled_rows));
  Buffer.add_string buf "  \"counters\": {";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "\"%s\": %d" (Obs.json_escape k) v)
          p.counters));
  Buffer.add_string buf "}\n}\n";
  Buffer.contents buf
