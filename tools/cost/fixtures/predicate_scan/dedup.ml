(* Predicate scans over an accumulated list inside a hot loop: the shape
   of a rule-2(b) dedup that remembers every kept (key, feature) pair in
   a growing list and asks List.exists about each new child, so a wide
   group costs O(n^2).  The sibling scans via for_all / find / find_opt /
   find_map have the same cost. *)

(* xkscost: hot *)
let keep_distinct children =
  let seen = Hashtbl.create 4 in
  let used key feature =
    match Hashtbl.find_opt seen key with
    | Some features -> List.exists (String.equal feature) !features
    | None -> false
  in
  List.filter
    (fun (key, feature) ->
      if used key feature then false
      else begin
        (match Hashtbl.find_opt seen key with
        | Some features -> features := feature :: !features
        | None -> Hashtbl.add seen key (ref [ feature ]));
        true
      end)
    children

(* xkscost: hot *)
let maximal keys = List.filter (fun k -> List.for_all (fun o -> o <= k) keys) keys

(* xkscost: hot *)
let first_cover keys =
  List.map (fun k -> List.find (fun o -> o land k = k && o <> k) keys) keys

(* xkscost: hot *)
let covers keys =
  List.map (fun k -> List.find_opt (fun o -> o land k = k && o <> k) keys) keys

(* xkscost: hot *)
let owners pairs keys =
  List.map
    (fun k -> List.find_map (fun (o, id) -> if o = k then Some id else None) pairs)
    keys
