(* An allow with a known rule id but no reason: the reason is the
   point of the escape hatch, so the tool rejects the input (exit 2). *)

(* xkscost: hot *)
let total postings =
  (* xkscost: allow list-append *)
  List.fold_left (fun acc p -> acc @ [ p ]) [] postings
