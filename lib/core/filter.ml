module Aggregate = Qf_relational.Aggregate

type agg = Aggregate.func =
  | Count
  | Sum of string
  | Min of string
  | Max of string

type t = { agg : agg; threshold : float }

let count_at_least n = { agg = Count; threshold = float_of_int n }
let sum_at_least column threshold = { agg = Sum column; threshold }

let is_monotone t =
  match t.agg with Count | Sum _ | Max _ -> true | Min _ -> false

let to_aggregate t ~head_columns =
  (match t.agg with
  | Count -> ()
  | Sum column | Min column | Max column ->
    if not (List.mem column head_columns) then
      failwith
        (Printf.sprintf "Filter.to_aggregate: %s is not a head column" column));
  t.agg

let holds t value = Aggregate.passes ~threshold:t.threshold value

let pp_threshold ppf x =
  if Float.is_integer x then Format.fprintf ppf "%.0f" x
  else Format.fprintf ppf "%g" x

let pp ~head ppf t =
  match t.agg with
  | Count ->
    Format.fprintf ppf "COUNT(%s(*)) >= %a" head pp_threshold t.threshold
  | Sum c -> Format.fprintf ppf "SUM(%s.%s) >= %a" head c pp_threshold t.threshold
  | Min c -> Format.fprintf ppf "MIN(%s.%s) >= %a" head c pp_threshold t.threshold
  | Max c -> Format.fprintf ppf "MAX(%s.%s) >= %a" head c pp_threshold t.threshold

(* Canonical form for memo keys: the aggregated column is named by its
   *position* among the head columns, not its name — α-renamed queries
   change head variable names but not positions, and two steps must only
   share a memo entry when their filters agree under the renaming. *)
let signature t ~head_columns =
  let positional label c =
    match List.find_index (String.equal c) head_columns with
    | Some i -> Some (Printf.sprintf "%s@%d" label i)
    | None -> None
  in
  let agg =
    match t.agg with
    | Count -> Some "COUNT"
    | Sum c -> positional "SUM" c
    | Min c -> positional "MIN" c
    | Max c -> positional "MAX" c
  in
  Option.map (fun a -> Printf.sprintf "%s>=%.17g" a t.threshold) agg

let equal a b =
  a.threshold = b.threshold
  &&
  match a.agg, b.agg with
  | Count, Count -> true
  | Sum x, Sum y | Min x, Min y | Max x, Max y -> String.equal x y
  | (Count | Sum _ | Min _ | Max _), _ -> false
