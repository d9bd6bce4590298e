(* An allow naming a rule id xkscost does not have: the suppression
   would never match anything, so the tool rejects the input (exit 2). *)

(* xkscost: hot *)
let total postings =
  (* xkscost: allow list-apend the list has at most two elements *)
  List.fold_left (fun acc p -> acc @ [ p ]) [] postings
