module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let table : int VH.t = VH.create 4096

(* Codes [0, !n) index [!arr]; [arr] doubles when full. *)
let arr = ref [||]
let n = ref 0

let encode v =
  match VH.find_opt table v with
  | Some c -> c
  | None ->
    let c = !n in
    if c = Array.length !arr then begin
      let grown = Array.make (max 1024 (2 * c)) (Value.Int 0) in
      Array.blit !arr 0 grown 0 c;
      arr := grown
    end;
    !arr.(c) <- v;
    n := c + 1;
    VH.add table v c;
    c

let find_opt v = VH.find_opt table v

let decode c =
  if c < 0 || c >= !n then
    invalid_arg (Printf.sprintf "Dict.decode: unknown code %d" c);
  Array.unsafe_get !arr c

let size () = !n
