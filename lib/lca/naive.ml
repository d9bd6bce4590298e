module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey

let in_range (node : Tree.node) id = id >= node.id && id <= node.subtree_end

let is_full_container doc postings id =
  let node = Tree.node doc id in
  (* xkscost: unticked oracle: brute-force reference used only by tests and the check oracle, never on the serving path *)
  Array.for_all (fun s -> Array.exists (in_range node) s) postings

let full_containers doc postings =
  (* xkscost: unticked oracle: O(n * occurrences) reference, test/check-oracle only *)
  Tree.fold
    (fun acc (n : Tree.node) ->
      if is_full_container doc postings n.id then n.id :: acc else acc)
    [] doc
  |> List.rev

let slca doc postings =
  let fcs = full_containers doc postings in
  let strict_desc a b =
    let na = Tree.node doc a and nb = Tree.node doc b in
    Dewey.is_ancestor (Tree.dewey doc na) (Tree.dewey doc nb)
  in
  (* xkscost: unticked oracle: quadratic minimality filter, test/check-oracle only *)
  List.filter
    (* xkscost: unticked oracle: inner minimality scan, test/check-oracle only *)
    (fun a -> not (List.exists (fun b -> strict_desc a b) fcs)) (* xkscost: allow membership-scan oracle-only reference *)
    fcs

let elca doc postings =
  let fcs = full_containers doc postings in
  let keeps (n : Tree.node) =
    (* Occurrences surviving the exclusion: in the subtree of [n] but not
       in the subtree of any full container strictly below [n]. *)
    let excluded id =
      (* xkscost: unticked oracle: per-occurrence exclusion scan, test/check-oracle only *)
      List.exists (* xkscost: allow membership-scan oracle: Definition 3 exclusion scan, test/check-oracle only *)
        (fun f ->
          f <> n.id
          && in_range n f
          && in_range (Tree.node doc f) id)
        fcs
    in
    (* xkscost: unticked oracle: witness scan straight off Definition 3, test/check-oracle only *)
    Array.for_all
      (fun s ->
        (* xkscost: unticked oracle: same witness scan, inner occurrence sweep *)
        Array.exists (fun id -> in_range n id && not (excluded id)) s)
      postings
  in
  (* xkscost: unticked oracle: visits every tree node, test/check-oracle only *)
  Tree.fold (fun acc n -> if keeps n then n.id :: acc else acc) [] doc
  |> List.rev

let lca_of_witnesses doc postings =
  let k = Array.length postings in
  (* xkscost: unticked k-bounded: one emptiness test per keyword list *)
  if Array.exists (fun s -> Array.length s = 0) postings || k = 0 then []
  else begin
    let acc = ref [] in
    (* xkscost: unticked oracle: exponential witness enumeration, test/check-oracle only *)
    let rec go i current_lca =
      if i = k then acc := current_lca :: !acc
      else
        (* xkscost: unticked oracle: same witness enumeration, one branch per occurrence *)
        Array.iter
          (fun id ->
            let d = Tree.dewey doc (Tree.node doc id) in
            go (i + 1) (Dewey.lca current_lca d))
          postings.(i)
    in
    (* xkscost: unticked oracle: drives the witness enumeration, test/check-oracle only *)
    Array.iter
      (fun id -> go 1 (Tree.dewey doc (Tree.node doc id)))
      postings.(0);
    let ids =
      List.filter_map (fun d ->
          Option.map (fun (n : Tree.node) -> n.id) (Tree.find_by_dewey doc d))
        !acc
    in
    List.sort_uniq Int.compare ids
  end
