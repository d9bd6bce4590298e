module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey

let slca doc postings =
  let k = Array.length postings in
  (* xkscost: unticked k-bounded: one emptiness test per keyword list *)
  if k = 0 || Array.exists (fun s -> Array.length s = 0) postings then []
  else begin
    let anchor = Probe.smallest_list_index postings in
    let s1 = postings.(anchor) in
    (* One forward cursor per non-anchor list, pointing at the first
       element >= the current anchor occurrence. *)
    let cursors = Array.make k 0 in
    let closest_depth i (v_node : Tree.node) v_dewey =
      let s = postings.(i) in
      let n = Array.length s in
      let vid = v_node.id in
      (* xkscost: unticked baseline: SLCA cross-check for tests/stress; cursors only move forward, amortised one step per occurrence *)
      while cursors.(i) < n && s.(cursors.(i)) < vid do
        cursors.(i) <- cursors.(i) + 1
      done;
      let depth_with id =
        Dewey.lca_depth v_dewey (Tree.dewey doc (Tree.node doc id))
      in
      let right =
        if cursors.(i) < n then Some (depth_with s.(cursors.(i))) else None
      in
      let left =
        if cursors.(i) > 0 then Some (depth_with s.(cursors.(i) - 1)) else None
      in
      match (left, right) with
      | None, None -> assert false (* the list is non-empty *)
      | Some d, None | None, Some d -> d
      | Some l, Some r -> max l r
    in
    let candidate v =
      let v_node = Tree.node doc v in
      let v_dewey = Tree.dewey doc v_node in
      let depth = ref v_node.depth in
      (* xkscost: unticked k-bounded: one cursor probe per keyword list *)
      for i = 0 to k - 1 do
        if i <> anchor then
          depth := min !depth (closest_depth i v_node v_dewey)
      done;
      (Probe.ancestor_at doc v_node !depth).id
    in
    let cands =
      (* xkscost: unticked baseline: SLCA cross-check for tests/stress; serving uses Slca.indexed_lookup_eager, which ticks per driver occurrence *)
      Array.to_list (Array.map candidate s1) |> List.sort_uniq Int.compare
    in
    Slca.filter_minimal doc cands
  end
