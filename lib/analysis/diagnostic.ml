module Ast = Qf_datalog.Ast

type severity = Error | Warning | Info

type code =
  | QF001  (** syntax error *)
  | QF002  (** ill-formed union *)
  | QF010  (** unsafe head variable (Sec. 3.3 condition 1) *)
  | QF011  (** unsafe negated-subgoal variable (Sec. 3.3 condition 2) *)
  | QF012  (** unsafe arithmetic-subgoal variable (Sec. 3.3 condition 3) *)
  | QF013  (** parameter in rule head *)
  | QF014  (** flock has no parameters *)
  | QF020  (** unknown relation *)
  | QF021  (** inconsistent arity across subgoals *)
  | QF022  (** arity disagrees with the stored relation *)
  | QF030  (** redundant subgoal (CQ minimization) *)
  | QF040  (** arithmetic subgoal is always false *)
  | QF041  (** arithmetic subgoal is always true *)
  | QF042  (** contradictory pair of arithmetic subgoals *)
  | QF050  (** singleton variable *)
  | QF051  (** cartesian product: disconnected join graph *)
  | QF060  (** filter references a non-head column *)
  | QF061  (** non-monotone filter defeats a-priori pruning *)
  | QF063  (** view mentions a parameter *)
  | QF070  (** arithmetic subgoal unsatisfiable under certified ranges *)
  | QF071  (** positive subgoal can never match (dead subgoal) *)
  | QF072  (** flock certified empty *)
  | QF073  (** SUM monotonicity assumption unverified *)

type t = {
  code : code;
  severity : severity;
  span : Ast.span;
  message : string;
}

let code_to_string = function
  | QF001 -> "QF001"
  | QF002 -> "QF002"
  | QF010 -> "QF010"
  | QF011 -> "QF011"
  | QF012 -> "QF012"
  | QF013 -> "QF013"
  | QF014 -> "QF014"
  | QF020 -> "QF020"
  | QF021 -> "QF021"
  | QF022 -> "QF022"
  | QF030 -> "QF030"
  | QF040 -> "QF040"
  | QF041 -> "QF041"
  | QF042 -> "QF042"
  | QF050 -> "QF050"
  | QF051 -> "QF051"
  | QF060 -> "QF060"
  | QF061 -> "QF061"
  | QF063 -> "QF063"
  | QF070 -> "QF070"
  | QF071 -> "QF071"
  | QF072 -> "QF072"
  | QF073 -> "QF073"

(* Which section of the paper motivates each check. *)
let code_section = function
  | QF001 -> "2.2"
  | QF002 -> "3.4"
  | QF010 | QF011 | QF012 -> "3.3"
  | QF013 | QF014 -> "2.2"
  | QF020 | QF021 | QF022 -> "2.1"
  | QF030 -> "3.1"
  | QF040 | QF041 | QF042 -> "2.3"
  | QF050 -> "2.3"
  | QF051 -> "4.3"
  | QF060 -> "2.2"
  | QF061 -> "4.1"
  | QF063 -> "2.3"
  | QF070 | QF071 | QF072 -> "4.3"
  | QF073 -> "5"

let code_summary = function
  | QF001 -> "syntax error"
  | QF002 -> "ill-formed union"
  | QF010 -> "head variable not bound by a positive subgoal"
  | QF011 -> "negated-subgoal variable not bound by a positive subgoal"
  | QF012 -> "arithmetic-subgoal variable not bound by a positive subgoal"
  | QF013 -> "parameter in rule head"
  | QF014 -> "flock has no parameters"
  | QF020 -> "unknown relation"
  | QF021 -> "inconsistent arity across subgoals"
  | QF022 -> "arity disagrees with the stored relation"
  | QF030 -> "redundant subgoal (removable by CQ minimization)"
  | QF040 -> "arithmetic subgoal is always false"
  | QF041 -> "arithmetic subgoal is always true"
  | QF042 -> "contradictory arithmetic subgoals"
  | QF050 -> "singleton variable"
  | QF051 -> "cartesian product (disconnected join graph)"
  | QF060 -> "filter references a non-head column"
  | QF061 -> "non-monotone filter defeats a-priori pruning"
  | QF063 -> "view mentions a parameter"
  | QF070 -> "arithmetic subgoal unsatisfiable under certified ranges"
  | QF071 -> "subgoal can never match the stored relation"
  | QF072 -> "flock certified empty against this catalog"
  | QF073 -> "SUM monotonicity assumption unverified"

let all_codes =
  [ QF001; QF002; QF010; QF011; QF012; QF013; QF014; QF020; QF021; QF022;
    QF030; QF040; QF041; QF042; QF050; QF051; QF060; QF061; QF063;
    QF070; QF071; QF072; QF073 ]

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let make code severity span fmt =
  Format.kasprintf (fun message -> { code; severity; span; message }) fmt

let errorf code span fmt = make code Error span fmt
let warningf code span fmt = make code Warning span fmt
let infof code span fmt = make code Info span fmt

let compare_position (a : Ast.position) (b : Ast.position) =
  match Int.compare a.line b.line with
  | 0 -> Int.compare a.col b.col
  | c -> c

(* Located diagnostics first (in source order), unlocated ones last; ties
   broken by code then message so reports are deterministic. *)
let compare a b =
  match Ast.is_no_span a.span, Ast.is_no_span b.span with
  | true, false -> 1
  | false, true -> -1
  | _ -> (
    match compare_position a.span.Ast.start_pos b.span.Ast.start_pos with
    | 0 -> (
      match
        String.compare (code_to_string a.code) (code_to_string b.code)
      with
      | 0 -> String.compare a.message b.message
      | c -> c)
    | c -> c)

let sort diags = List.stable_sort compare diags

let count severity diags =
  List.length (List.filter (fun d -> d.severity = severity) diags)

let has_errors diags = List.exists (fun d -> d.severity = Error) diags

let distinct_codes diags =
  List.sort_uniq String.compare (List.map (fun d -> code_to_string d.code) diags)

(* {1 Text rendering} *)

let pp_text ~file ppf d =
  let loc =
    if Ast.is_no_span d.span then ""
    else
      Format.asprintf "%d:%d: " d.span.Ast.start_pos.Ast.line
        d.span.Ast.start_pos.Ast.col
  in
  Format.fprintf ppf "%s:%s%s[%s]: %s (see paper Sec. %s)" file loc
    (severity_to_string d.severity)
    (code_to_string d.code) d.message (code_section d.code)

let render_text ~file diags =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter (fun d -> Format.fprintf ppf "%a@." (pp_text ~file) d) (sort diags);
  let errors = count Error diags and warnings = count Warning diags in
  if diags = [] then Format.fprintf ppf "%s: clean@." file
  else
    Format.fprintf ppf "%s: %d error%s, %d warning%s, %d info@." file errors
      (if errors = 1 then "" else "s")
      warnings
      (if warnings = 1 then "" else "s")
      (count Info diags);
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* {1 JSON rendering (hand-rolled; no JSON library in the tree)} *)

let span_json (s : Ast.span) =
  if Ast.is_no_span s then "null"
  else
    Printf.sprintf
      "{\"start\":{\"line\":%d,\"col\":%d},\"end\":{\"line\":%d,\"col\":%d}}"
      s.start_pos.line s.start_pos.col s.end_pos.line s.end_pos.col

let to_json d =
  Printf.sprintf
    "{\"code\":\"%s\",\"severity\":\"%s\",\"span\":%s,\"message\":\"%s\",\"section\":\"%s\"}"
    (code_to_string d.code)
    (severity_to_string d.severity)
    (span_json d.span) (Qf_obs.Obs.json_escape d.message)
    (code_section d.code)

let render_json ~file diags =
  let body = String.concat ",\n    " (List.map to_json (sort diags)) in
  Printf.sprintf
    "{\n  \"file\": \"%s\",\n  \"errors\": %d,\n  \"warnings\": %d,\n  \"infos\": %d,\n  \"diagnostics\": [%s%s]\n}\n"
    (Qf_obs.Obs.json_escape file) (count Error diags) (count Warning diags)
    (count Info diags)
    (if diags = [] then "" else "\n    ")
    (if diags = [] then body else body ^ "\n  ")
