(* An allow naming a rule id xkslint does not have ("module-sate"): it
   would suppress nothing while looking like a justified exemption, so
   the tool rejects the input (exit 2). *)

(* xkslint: allow module-sate the table is filled once at startup *)
let table = Hashtbl.create 16
