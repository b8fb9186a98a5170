type t = int array

let of_list items = Array.of_list (List.sort_uniq Int.compare items)
let to_list = Array.to_list
let size = Array.length

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec loop i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

let equal a b = compare a b = 0

let mem item set =
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if set.(mid) = item then true
      else if set.(mid) < item then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length set)

let subset a b =
  let la = Array.length a and lb = Array.length b in
  let rec loop i j =
    if i >= la then true
    else if j >= lb then false
    else if a.(i) = b.(j) then loop (i + 1) (j + 1)
    else if a.(i) > b.(j) then loop i (j + 1)
    else false
  in
  loop 0 0

let union a b = of_list (Array.to_list a @ Array.to_list b)
let minus a b = Array.of_list (List.filter (fun x -> not (mem x b)) (Array.to_list a))

let drop_one t =
  List.init (Array.length t) (fun drop ->
      Array.of_list
        (List.filteri (fun i _ -> i <> drop) (Array.to_list t)))

let join a b =
  let k = Array.length a in
  if k = 0 || Array.length b <> k then None
  else
    let rec prefix_eq i = i >= k - 1 || (a.(i) = b.(i) && prefix_eq (i + 1)) in
    if prefix_eq 0 && a.(k - 1) < b.(k - 1) then begin
      let out = Array.make (k + 1) 0 in
      Array.blit a 0 out 0 k;
      out.(k) <- b.(k - 1);
      Some out
    end
    else None

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash t = Array.fold_left (fun acc x -> (acc * 31) + x) 17 t
end)
