module Pool = Qf_exec_pool.Pool
module Obs = Qf_obs.Obs
module Buf = Chunkrel.Buf

let exact_cutoff = 4096

(* Bloom bits are derived from {!Value.hash} of the decoded value — not
   from the raw code.  Code assignment order depends on the order in
   which relations were loaded and encoded, so code-based bits would make
   false-positive sets — and therefore pruned-row counts — depend on load
   order.  Value hashes do not. *)
type bloom = {
  bits : Bytes.t;
  mask : int;  (** bit-index mask; bit count is a power of two *)
}

(* The exact representation is a set of dictionary codes.  Codes are
   process-unique per value, so code membership is value membership. *)
type t =
  | Exact of (int, unit) Hashtbl.t
  | Bloom of bloom

let is_exact = function Exact _ -> true | Bloom _ -> false

let bloom_hashes mask vh =
  let h1 = Chunkrel.mix 17 vh land mask in
  let h2 = Chunkrel.mix 31 vh lor 1 in
  h1, h2

let bloom_set b vh =
  let h1, h2 = bloom_hashes b.mask vh in
  for i = 0 to 2 do
    let bit = (h1 + (i * h2)) land b.mask in
    let byte = bit lsr 3 in
    Bytes.unsafe_set b.bits byte
      (Char.chr (Char.code (Bytes.unsafe_get b.bits byte) lor (1 lsl (bit land 7))))
  done

let bloom_mem b vh =
  let h1, h2 = bloom_hashes b.mask vh in
  let rec probe i =
    i > 2
    ||
    let bit = (h1 + (i * h2)) land b.mask in
    Char.code (Bytes.unsafe_get b.bits (bit lsr 3)) land (1 lsl (bit land 7)) <> 0
    && probe (i + 1)
  in
  probe 0

let exact_of_codes codes =
  let e = Hashtbl.create (max 16 (Array.length codes)) in
  Array.iter (fun c -> Hashtbl.replace e c ()) codes;
  Exact e

let bloom_of_codes codes =
  (* ~12 bits per key with 3 probes: false-positive rate around 1%. *)
  let nbits = Chunkrel.hash_capacity (12 * max 1 (Array.length codes)) in
  let b = { bits = Bytes.make (nbits lsr 3) '\000'; mask = nbits - 1 } in
  Array.iter (fun c -> bloom_set b (Value.hash (Dict.decode c))) codes;
  Bloom b

(* Exact below the cutoff, Bloom above, over codes known distinct. *)
let of_distinct_codes codes =
  if Obs.enabled () then Obs.count "sip.reducer_built" 1;
  if Array.length codes <= exact_cutoff then exact_of_codes codes
  else bloom_of_codes codes

let distinct_codes col n =
  Array.map (fun i -> col.(i)) (Chunkrel.distinct_rows [| col |] n)

let of_column rel col =
  let chunk = Relation.codes rel in
  let pos = Schema.position (Relation.schema rel) col in
  of_distinct_codes (distinct_codes chunk.Chunkrel.cols.(pos) chunk.Chunkrel.nrows)

let mem t code =
  match t with
  | Exact e -> Hashtbl.mem e code
  | Bloom b -> bloom_mem b (Value.hash (Dict.decode code))

let filter rel ~pos t =
  let chunk = Relation.codes rel in
  let col = chunk.Chunkrel.cols.(pos) in
  let n = chunk.Chunkrel.nrows in
  let pool = Pool.default () in
  let kept =
    if Pool.size pool = 1 || n < Pool.par_threshold () then begin
      let buf = Buf.create n in
      for i = 0 to n - 1 do
        if mem t col.(i) then Buf.push buf i
      done;
      Buf.to_array buf
    end
    else
      (* Reducer membership is a pure read; safe from worker domains. *)
      Pool.run_chunks pool ~n (fun ~lo ~hi ->
          let buf = Buf.create (hi - lo) in
          for i = lo to hi - 1 do
            if mem t col.(i) then Buf.push buf i
          done;
          buf)
      |> Buf.concat
  in
  Relation.of_chunkrel (Relation.schema rel) (Chunkrel.gather chunk kept)
