module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* A published snapshot: codes [0, n) are valid indices into [arr].  The
   encoder republishes after every extension; [Atomic.set] is a release
   store and [Atomic.get] an acquire load, so a reader that obtained a
   code (through any happens-before edge, such as a mutex) sees the
   corresponding array write. *)
type snapshot = { n : int; arr : Value.t array }

let table : int VH.t = VH.create 4096
let mutex = Mutex.create ()
let published : snapshot Atomic.t = Atomic.make { n = 0; arr = [||] }

(* Encoder-side state, guarded by [mutex]. *)
let live_arr = ref [||]
let live_n = ref 0

(* Republish only after an extension: a lookup that assigned no code
   leaves the snapshot as it is, and allocates nothing. *)
let publish () =
  if (Atomic.get published).n <> !live_n then
    Atomic.set published { n = !live_n; arr = !live_arr }

let encode_locked v =
  match VH.find_opt table v with
  | Some c -> c
  | None ->
    let n = !live_n in
    if n = Array.length !live_arr then begin
      let cap = max 1024 (2 * n) in
      let arr = Array.make cap (Value.Int 0) in
      Array.blit !live_arr 0 arr 0 n;
      live_arr := arr
    end;
    !live_arr.(n) <- v;
    live_n := n + 1;
    VH.add table v n;
    n

let encode v =
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () ->
      publish ();
      Mutex.unlock mutex)
    (fun () -> encode_locked v)

let with_encoder f =
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () ->
      publish ();
      Mutex.unlock mutex)
    (fun () -> f encode_locked)

let find_opt v = Mutex.protect mutex (fun () -> VH.find_opt table v)

let decode c =
  let s = Atomic.get published in
  if c < 0 || c >= s.n then
    invalid_arg (Printf.sprintf "Dict.decode: unknown code %d" c);
  Array.unsafe_get s.arr c

let size () = (Atomic.get published).n
