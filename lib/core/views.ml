(* Views are exactly parameter-free stratified Datalog programs; the heavy
   lifting (stratification, semi-naive fixpoint) lives in
   {!Qf_datalog.Fixpoint}. *)

let materialize = Qf_datalog.Fixpoint.materialize
