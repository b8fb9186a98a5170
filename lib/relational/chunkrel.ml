type t = { nrows : int; cols : int array array }

let tuple_at t i =
  let arity = Array.length t.cols in
  Tuple.of_array (Array.init arity (fun c -> Dict.decode t.cols.(c).(i)))

(* {1 Hashing} — multiply/xor-shift combine over the key codes.

   Dictionary codes are small, dense integers, and every hash consumer
   masks down to the low bits of a power-of-two table, so the combine
   must avalanche into the low bits: fold the code in additively, spread
   it through the word with an odd multiplier, then fold the high half
   back down.  (A boost-style [h ^ (c + phi + shifts)] combine left the
   masked low bits so clustered that open-addressing grouping degenerated
   to thousands of probes per row on real workloads.) *)

let mix h c =
  let h = (h + c) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land max_int

let hash_key key_cols i =
  let h = ref 17 in
  for k = 0 to Array.length key_cols - 1 do
    h := mix !h (Array.unsafe_get (Array.unsafe_get key_cols k) i)
  done;
  !h

let hash_codes codes =
  let h = ref 17 in
  for k = 0 to Array.length codes - 1 do
    h := mix !h (Array.unsafe_get codes k)
  done;
  !h

let hash_capacity n =
  let rec up c = if c >= n then c else up (c * 2) in
  up 16

(* {1 Row selection} *)

let gather_cols cols idxs =
  Array.map
    (fun col ->
      Array.init (Array.length idxs) (fun i ->
          Array.unsafe_get col (Array.unsafe_get idxs i)))
    cols

let gather t idxs =
  { nrows = Array.length idxs; cols = gather_cols t.cols idxs }

let rows_equal cols i j =
  let rec loop c =
    c >= Array.length cols
    || Array.unsafe_get (Array.unsafe_get cols c) i
       = Array.unsafe_get (Array.unsafe_get cols c) j
       && loop (c + 1)
  in
  loop 0

(* Open-addressing dedup over code rows: slots hold a previously kept row
   index (or -1); linear probing. *)
let distinct_rows cols n =
  let cap = hash_capacity (2 * n) in
  let mask = cap - 1 in
  let slots = Array.make cap (-1) in
  let kept = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let h = ref (hash_key cols i land mask) in
    let stop = ref false in
    while not !stop do
      let j = Array.unsafe_get slots !h in
      if j = -1 then begin
        Array.unsafe_set slots !h i;
        kept.(!k) <- i;
        incr k;
        stop := true
      end
      else if rows_equal cols i j then stop := true
      else h := (!h + 1) land mask
    done
  done;
  Array.sub kept 0 !k

(* {1 Growable int buffers} *)

module Buf = struct
  (* [cap] is the number of entries [push] may write before it must
     reallocate; it is [Array.length data] except for a {!wrap}ped array,
     which is never written in place. *)
  type buf = { mutable data : int array; mutable len : int; mutable cap : int }

  let create n =
    let n = max 8 n in
    { data = Array.make n 0; len = 0; cap = n }

  let wrap data len = { data; len; cap = len }

  let grow b needed =
    let cap = max needed (2 * b.cap) in
    let data = Array.make cap 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data;
    b.cap <- cap

  let push b x =
    if b.len = b.cap then grow b (b.len + 1);
    Array.unsafe_set b.data b.len x;
    b.len <- b.len + 1

  let length b = b.len
  let get b i = b.data.(i)
  let to_array b = Array.sub b.data 0 b.len
  let backing b = b.data
end
