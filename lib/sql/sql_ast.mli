(** Abstract syntax for the SQL subset the paper's Fig. 1 lives in:

    {v
    SELECT i1.Item, i2.Item
    FROM baskets i1, baskets i2
    WHERE i1.Item < i2.Item AND i1.BID = i2.BID
    GROUP BY i1.Item, i2.Item
    HAVING 20 <= COUNT(i1.BID)
    v}

    — conjunctive SELECT-FROM-WHERE with self-joins, GROUP BY, and a single
    aggregate lower bound in HAVING.  This is exactly the fragment that
    translates to query flocks with support-style filters (Sec. 2.2). *)

(** A qualified column reference [alias.column]. *)
type column = { alias : string; column : string }

type operand =
  | Col of column
  | Lit of Qf_relational.Value.t

(** The comparison operators of the paper's queries. *)
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

(** [HAVING n <= AGG(col)] or [HAVING AGG(col) >= n], normalized to a lower
    bound. *)
type having = { agg : aggregate; lower_bound : float }

type query = {
  select : column list;
  from : (string * string) list;  (** (table, alias); alias defaults to table *)
  where : predicate list;  (** conjunction *)
  group_by : column list;
  having : having;
}
