exception Injected of { point : string; index : int }

type mode = Off | Count | Inject of int

let mode = ref Off
let counter = ref 0

let point name =
  match !mode with
  | Off -> ()
  | Count -> incr counter
  | Inject k ->
    incr counter;
    (* Only the armed index fires; points crossed later (error-handling
       and cleanup paths included) pass through, so a cleanup that itself
       contains points can never raise a second injection. *)
    if !counter = k then raise (Injected { point = name; index = k })

let points_hit () = !counter

let run_in m f =
  counter := 0;
  mode := m;
  Fun.protect ~finally:(fun () -> mode := Off) f

let with_count f =
  let v = run_in Count f in
  v, points_hit ()

let with_inject ~at f =
  if at < 1 then invalid_arg "Fault.with_inject: index is 1-based";
  let outcome =
    run_in (Inject at) (fun () ->
        match f () with v -> Ok v | exception e -> Error e)
  in
  outcome, points_hit ()

let () =
  Printexc.register_printer (function
    | Injected { point; index } ->
      Some (Printf.sprintf "Fault.Injected(%s, point %d)" point index)
    | _ -> None)
