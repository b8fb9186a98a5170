type column = { alias : string; column : string }

type operand =
  | Col of column
  | Lit of Qf_relational.Value.t

type predicate = {
  left : operand;
  op : Qf_datalog.Ast.comparison;
  right : operand;
}

type aggregate =
  | Count of column
  | Sum of column
  | Min of column
  | Max of column

type having = { agg : aggregate; lower_bound : float }

type query = {
  select : column list;
  from : (string * string) list;
  where : predicate list;
  group_by : column list;
  having : having;
}
