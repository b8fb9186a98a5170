(* A small state-machine CSV reader: handles quoted fields with embedded
   commas, doubled quotes, and newlines.  The header's fields name the
   columns; every later field goes through {!Value.of_string} straight to
   its code, under one dictionary lock for the whole text, and each
   record is inserted as a code row.  Error positions are physical
   1-based (line, byte column) pairs. *)
let parse_string text =
  let n = String.length text and buf = Buffer.create 32 in
  let line = ref 1 and line_start = ref 0 in
  let at i = !line, i - !line_start + 1 in
  let fail (line, col) fmt =
    Printf.ksprintf failwith ("Csv.parse: line %d, column %d: " ^^ fmt) line col
  in
  let header = ref [] and rel = ref None and row = ref [||] and k = ref 0 in
  let record_pos = ref (1, 1) and field_pos = ref (1, 1) in
  Dict.with_encoder @@ fun encode ->
  let end_field () =
    let s = Buffer.contents buf in
    Buffer.clear buf;
    (match !rel with
    | None ->
      if List.mem s !header then fail !field_pos "duplicate column %S" s;
      header := s :: !header
    | Some _ ->
      if !k < Array.length !row then !row.(!k) <- encode (Value.of_string s));
    incr k
  in
  let end_record () =
    end_field ();
    (match !rel with
    | None ->
      rel := Some (Relation.create (Schema.of_list (List.rev !header)));
      row := Array.make !k 0
    | Some r ->
      if !k <> Array.length !row then
        fail !record_pos "row has %d fields, expected %d" !k (Array.length !row);
      Relation.add_codes r !row);
    k := 0
  in
  (* [started]: the current record has content, so end of input ends it. *)
  let rec plain i started =
    if i >= n then (if started then end_record ())
    else
      match text.[i] with
      | ',' ->
        end_field ();
        field_pos := at (i + 1);
        plain (i + 1) true
      | '\n' ->
        end_record ();
        incr line;
        line_start := i + 1;
        record_pos := at (i + 1);
        field_pos := !record_pos;
        plain (i + 1) false
      | '\r' -> plain (i + 1) started
      | '"' when Buffer.length buf = 0 -> quoted (i + 1) (at i)
      | c ->
        Buffer.add_char buf c;
        plain (i + 1) true
  and quoted i opening =
    if i >= n then fail opening "unterminated quoted field"
    else
      match text.[i] with
      | '"' when i + 1 < n && text.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        quoted (i + 2) opening
      | '"' -> plain (i + 1) true
      | c ->
        Buffer.add_char buf c;
        if c = '\n' then begin
          incr line;
          line_start := i + 1
        end;
        quoted (i + 1) opening
  in
  plain 0 false;
  match !rel with
  | None -> failwith "Csv.parse: empty input (missing header)"
  | Some r -> r

let escape_field s =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quoting then s
  else
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf

(* 15 significant digits, or 17 when 15 do not read back as the same
   float, with a ".0" when the text would read back as an [Int]. *)
let real_field f =
  let s = Printf.sprintf "%.15g" f in
  let s =
    if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f
  in
  if Option.is_some (int_of_string_opt s) then s ^ ".0" else s

let field_of_value = function
  | Value.Int i -> string_of_int i
  | Value.Real f -> real_field f
  | Value.Str s -> escape_field s

let to_string rel =
  let buf = Buffer.create 1024 in
  let add_row fields =
    Buffer.add_string buf (String.concat "," fields);
    Buffer.add_char buf '\n'
  in
  add_row (List.map escape_field (Schema.columns (Relation.schema rel)));
  List.iter
    (fun tup -> add_row (List.map field_of_value (Tuple.to_list tup)))
    (Relation.to_sorted_list rel);
  Buffer.contents buf

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_string (really_input_string ic (in_channel_length ic)))

let save path rel =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string rel))
