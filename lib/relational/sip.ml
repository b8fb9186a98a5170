module Obs = Qf_obs.Obs

(* Bit [c] is set when dictionary code [c] is a member.  The bitset ends
   at the largest member code, so it takes at most one bit per code the
   dictionary holds; a code past its end (a value encoded later, say) is
   no member. *)
type t = {
  bits : Bytes.t;
  source : (int * int) option;
      (** id and version of the one-column relation summarized *)
}

let build ~source col n =
  if Obs.enabled () then Obs.count "sip.reducer_built" 1;
  let top = ref (-1) in
  for i = 0 to n - 1 do
    if col.(i) > !top then top := col.(i)
  done;
  let bits = Bytes.make ((!top + 8) lsr 3) '\000' in
  for i = 0 to n - 1 do
    let c = col.(i) in
    let byte = c lsr 3 in
    Bytes.unsafe_set bits byte
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get bits byte) lor (1 lsl (c land 7))))
  done;
  { bits; source }

let of_codes codes = build ~source:None codes (Array.length codes)

let of_column rel col =
  let chunk = Relation.codes rel in
  let pos = Schema.position (Relation.schema rel) col in
  let source =
    if Relation.arity rel = 1 then Some (Relation.id rel, Relation.version rel)
    else None
  in
  build ~source chunk.Chunkrel.cols.(pos) chunk.Chunkrel.nrows

let mem t code =
  let byte = code lsr 3 in
  byte < Bytes.length t.bits
  && Char.code (Bytes.unsafe_get t.bits byte) land (1 lsl (code land 7)) <> 0

let bits t = t.bits

let summarizes t rel =
  t.source = Some (Relation.id rel, Relation.version rel)
