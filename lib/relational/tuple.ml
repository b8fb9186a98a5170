(* A tuple caches its structural hash at construction, so [equal] gets a
   cheap negative fast path and [hash] is one field read.  Construction
   goes through {!of_array} so the cache can never go stale (callers must
   not mutate the array afterwards; every constructor here allocates a
   fresh one). *)

type t = { values : Value.t array; hash : int }

let hash_values values =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 values

let of_array values = { values; hash = hash_values values }
let of_list l = of_array (Array.of_list l)
let arity t = Array.length t.values
let get t i = t.values.(i)
let hash t = t.hash
let to_list t = Array.to_list t.values
let to_seq t = Array.to_seq t.values

let compare a b =
  let la = Array.length a.values and lb = Array.length b.values in
  let c = Int.compare la lb in
  if c <> 0 then c
  else
    let rec loop i =
      if i >= la then 0
      else
        let c = Value.compare a.values.(i) b.values.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let equal a b =
  a == b
  || a.hash = b.hash
     && Array.length a.values = Array.length b.values
     &&
     let rec loop i =
       i >= Array.length a.values
       || (Value.equal a.values.(i) b.values.(i) && loop (i + 1))
     in
     loop 0

let append a b = of_array (Array.append a.values b.values)

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (Array.to_seq t.values)
