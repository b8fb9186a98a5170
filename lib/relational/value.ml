type t =
  | Int of int
  | Str of string
  | Real of float

(* {1 String interning}

   String-keyed workloads (items, symptoms, words) compare the same small
   set of strings over and over in hash probes.  Interning maps every
   distinct string to one canonical copy so equality can try pointer
   comparison before falling back to [String.equal].  The table is guarded
   by a mutex, so values may be built on any domain; [equal] itself never
   touches the table, so the fast path stays lock-free.  Interning is an
   optimization, not an invariant: [Str] values built without {!str}
   still compare correctly. *)

let intern_table : (string, string) Hashtbl.t = Hashtbl.create 1024
let intern_mutex = Mutex.create ()

let intern s =
  Mutex.lock intern_mutex;
  let canonical =
    match Hashtbl.find_opt intern_table s with
    | Some c -> c
    | None ->
      Hashtbl.add intern_table s s;
      s
  in
  Mutex.unlock intern_mutex;
  canonical

let str s = Str (intern s)
let interned_count () = Hashtbl.length intern_table

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Real x, Real y -> Float.compare x y
  | Int x, Real y ->
    let c = Float.compare (float_of_int x) y in
    if c <> 0 then c else -1
  | Real x, Int y ->
    let c = Float.compare x (float_of_int y) in
    if c <> 0 then c else 1
  | (Int _ | Real _), Str _ -> -1
  | Str _, (Int _ | Real _) -> 1

let equal a b =
  a == b
  ||
  match a, b with
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> x == y || String.equal x y
  | Real x, Real y -> Float.equal x y
  | _, _ -> false

let hash = function
  | Int x -> Hashtbl.hash (0, x)
  | Str s -> Hashtbl.hash (1, s)
  | Real f -> Hashtbl.hash (2, f)

let to_float = function
  | Int x -> Some (float_of_int x)
  | Real f -> Some f
  | Str _ -> None

let is_numeric = function Int _ | Real _ -> true | Str _ -> false

(* 15 significant digits, or 17 when 15 do not read back as the same
   float.  A finite real always carries a "." before any exponent: the
   text then never reads back as an [Int], and the Datalog lexer accepts
   it (it reads reals as d.d[e±d]). *)
let real_to_string f =
  let s = Printf.sprintf "%.15g" f in
  let s =
    if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f
  in
  if (not (Float.is_finite f)) || String.contains s '.' then s
  else
    match String.index_opt s 'e' with
    | Some i -> String.sub s 0 i ^ ".0" ^ String.sub s i (String.length s - i)
    | None -> s ^ ".0"

let pp ppf = function
  | Int x -> Format.pp_print_int ppf x
  | Str s -> Format.fprintf ppf "%S" s
  | Real f -> Format.pp_print_string ppf (real_to_string f)

let to_string v = Format.asprintf "%a" pp v

let of_string s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then str (String.sub s 1 (n - 2))
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s with Some f -> Real f | None -> str s)
