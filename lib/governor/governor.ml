module Obs = Qf_obs.Obs

exception Over_budget of { requested : int; used : int; budget : int }
exception Deadline_exceeded of { elapsed : float; timeout : float }
exception Cancelled

type stats = {
  peak_bytes : int;
  spill_partitions : int;
  spilled_bytes : int;
  spilled_rows : int;
}

type t = {
  budget : int;
  timeout : float option;
  mutable started : float;
  mutable deadline : float;  (** absolute; [infinity] without a timeout *)
  mutable used : int;
  mutable peak : int;
  mutable spill_partitions : int;
  mutable spilled_bytes : int;
  mutable spilled_rows : int;
  mutable cancelled : bool;
  seq : int;  (** distinguishes spill dirs of governors in one process *)
  mutable dir : string option;
  mutable file_seq : int;
}

let seq_counter = ref 0

let create ?(mem_budget = max_int) ?timeout_s () =
  if mem_budget < 0 then invalid_arg "Governor.create: negative budget";
  (match timeout_s with
  | Some s when s < 0. -> invalid_arg "Governor.create: negative timeout"
  | _ -> ());
  let seq = !seq_counter in
  incr seq_counter;
  {
    budget = mem_budget;
    timeout = timeout_s;
    started = 0.;
    deadline = infinity;
    used = 0;
    peak = 0;
    spill_partitions = 0;
    spilled_bytes = 0;
    spilled_rows = 0;
    cancelled = false;
    seq;
    dir = None;
    file_seq = 0;
  }

(* Bytes, k/m/g suffixes, "unbounded"/"inf"; also the syntax of the
   catalog's cache budgets. *)
let budget_of_string raw =
  let raw = String.trim raw in
  match String.lowercase_ascii raw with
  | "unbounded" | "inf" -> Some max_int
  | "" -> None
  | s -> (
    let scale, digits =
      match s.[String.length s - 1] with
      | 'k' -> 1024, String.sub s 0 (String.length s - 1)
      | 'm' -> 1024 * 1024, String.sub s 0 (String.length s - 1)
      | 'g' -> 1024 * 1024 * 1024, String.sub s 0 (String.length s - 1)
      | _ -> 1, s
    in
    match int_of_string_opt digits with
    | Some n when n >= 0 -> Some (n * scale)
    | Some _ | None -> None)

let budget g = g.budget
let used g = g.used

let stats g =
  {
    peak_bytes = g.peak;
    spill_partitions = g.spill_partitions;
    spilled_bytes = g.spilled_bytes;
    spilled_rows = g.spilled_rows;
  }

let cancel g = g.cancelled <- true

(* {1 The ambient governor} *)

let ambient : t option ref = ref None

let current () = !ambient

(* {1 Checkpoints} *)

let check_in g =
  Fault.point "governor.check";
  if g.cancelled then begin
    if Obs.enabled () then Obs.count "governor.cancelled" 1;
    raise Cancelled
  end;
  if g.deadline < infinity then begin
    let now = Unix.gettimeofday () in
    if now > g.deadline then begin
      if Obs.enabled () then Obs.count "governor.deadline_exceeded" 1;
      raise
        (Deadline_exceeded
           {
             elapsed = now -. g.started;
             timeout = Option.value g.timeout ~default:0.;
           })
    end
  end

let check () =
  match !ambient with None -> () | Some g -> check_in g

(* {1 Byte accounting} *)

let try_charge g n =
  Fault.point "governor.charge";
  let u = g.used + n in
  if u > g.budget then false
  else begin
    g.used <- u;
    g.peak <- max g.peak u;
    true
  end

let charge g n =
  if not (try_charge g n) then begin
    if Obs.enabled () then Obs.count "governor.over_budget" 1;
    raise (Over_budget { requested = n; used = g.used; budget = g.budget })
  end

let release g n = g.used <- g.used - n

let note_spill g ~partitions ~bytes ~rows =
  g.spill_partitions <- g.spill_partitions + partitions;
  g.spilled_bytes <- g.spilled_bytes + bytes;
  g.spilled_rows <- g.spilled_rows + rows;
  if Obs.enabled () then begin
    Obs.count "governor.spill.partitions" partitions;
    Obs.count "governor.spill.bytes" bytes;
    Obs.count "governor.spill.rows" rows
  end

(* {1 Spill directory lifecycle} *)

let spill_dir g =
  match g.dir with
  | Some d -> d
  | None ->
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "qf_spill.%d.%d" (Unix.getpid ()) g.seq)
    in
    (match Unix.mkdir d 0o700 with
    | () | (exception Unix.Unix_error (Unix.EEXIST, _, _)) -> ()
    | exception Unix.Unix_error (e, _, _) ->
      raise
        (Sys_error
           (Printf.sprintf "cannot create spill directory %s: %s" d
              (Unix.error_message e))));
    g.dir <- Some d;
    d

let fresh_spill_path g =
  let n = g.file_seq in
  g.file_seq <- n + 1;
  Filename.concat (spill_dir g) (Printf.sprintf "part.%d.qfs" n)

(* Best-effort recursive removal: runs inside [with_ctx]'s finally, so it
   must never raise (the original result or exception wins). *)
let cleanup g =
  match g.dir with
  | None -> ()
  | Some d ->
    g.dir <- None;
    (match Sys.readdir d with
    | entries ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
        entries
    | exception Sys_error _ -> ());
    (try Unix.rmdir d with Unix.Unix_error _ -> ())

let with_ctx g f =
  let prev = !ambient in
  g.started <- Unix.gettimeofday ();
  g.deadline <-
    (match g.timeout with Some s -> g.started +. s | None -> infinity);
  ambient := Some g;
  Fun.protect
    ~finally:(fun () ->
      ambient := prev;
      cleanup g;
      if Obs.enabled () then
        Obs.gauge_max "governor.peak_bytes" (float_of_int g.peak))
    f

let () =
  Printexc.register_printer (function
    | Over_budget { requested; used; budget } ->
      Some
        (Printf.sprintf
           "Governor.Over_budget(requested %d, used %d, budget %d)" requested
           used budget)
    | Deadline_exceeded { elapsed; timeout } ->
      Some
        (Printf.sprintf "Governor.Deadline_exceeded(%.3fs elapsed, %gs timeout)"
           elapsed timeout)
    | Cancelled -> Some "Governor.Cancelled"
    | _ -> None)
