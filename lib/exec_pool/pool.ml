type t = unit

let default () = ()
let size () = 1
let par_threshold () = max_int
