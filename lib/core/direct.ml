module Eval = Qf_datalog.Eval
module Relation = Qf_relational.Relation
module Obs = Qf_obs.Obs

let run catalog (flock : Flock.t) =
  Qf_governor.Governor.check ();
  let compute () =
    Eval.filter_query catalog flock.query ~keys:(Flock.result_columns flock)
      ~func:
        (Filter.to_aggregate flock.filter
           ~head_columns:(Flock.head_columns flock))
      ~threshold:flock.filter.threshold
  in
  if not (Obs.enabled ()) then
    let result, _, _, _ = compute () in
    result
  else
    Obs.with_span "direct.run" (fun () ->
        let result, tab_rows, _, _ = compute () in
        Obs.set_attr "rows_in" (Obs.Int tab_rows);
        Obs.set_attr "rows_out" (Obs.Int (Relation.cardinal result));
        result)
