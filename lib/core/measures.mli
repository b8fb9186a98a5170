(** The three association measures of the paper's Sec. 1.1 — support,
    confidence, interest — computed at the flock level for item pairs.

    An item's support is its count of baskets, grouped once over the
    relation.  A pair's support counts the pair flock's tabulated query,
    run by hand with the a-priori rewrite of Sec. 1.3: the query is
    tabulated ({!Qf_datalog.Eval.tabulate}) with both items restricted, as
    they are bound, to the items that grouping found frequent (a
    {!Qf_relational.Sip} reducer), and grouped by the pair.  Confidence
    and interest relate the pair's support to the items' own supports:

    - [confidence (a -> b) = support {a,b} / support {a}];
    - [interest (a -> b) = confidence / P(b)] where [P(b) = support {b} /
      number of baskets].  Interest far from 1 means the rule says more
      than item popularity alone (the paper's beer/diapers discussion). *)

type rule = {
  antecedent : Qf_relational.Value.t;
  consequent : Qf_relational.Value.t;
  pair_support : int;
  confidence : float;
  interest : float;
}

(** [pair_rules catalog ~pred ~support ~min_confidence] mines the
    [(BID, Item)] relation stored under [pred]: pairs with at least
    [support] baskets, turned into directed rules meeting
    [min_confidence], sorted by descending interest.  Raises [Failure] if
    [pred] is missing and [Invalid_argument] if [support < 1]. *)
val pair_rules :
  Qf_relational.Catalog.t ->
  pred:string ->
  support:int ->
  min_confidence:float ->
  rule list

val pp_rule : Format.formatter -> rule -> unit
