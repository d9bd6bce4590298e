(* A verb xksleak does not know ("closes"; the table has owns,
   releases, transfers and noraise).  The tool rejects the input
   (exit 2) instead of ignoring the annotation. *)

(* xksleak: closes fd *)
let finish fd = Unix.close fd
