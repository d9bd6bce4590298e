module Tree = Xks_xml.Tree
module Klist = Xks_index.Klist
module Cid = Xks_index.Cid

type info = {
  id : int;
  label : Xks_xml.Label.t;
  mutable klist : Klist.t;
  mutable cid : Cid.t;
  mutable rtf_children : info list;
}

type t = { doc : Tree.t; root_info : info }

(* One sweep over the keyword nodes in reverse document order.  [stack]
   holds the open path from the RTF root down to the member created
   last.  The keyword nodes below any member form a contiguous run of
   the sorted [rtf.knodes], so a member leaves the path exactly once,
   when the sweep passes its first keyword node; it then folds its
   [klist]/[cid] into its parent.  Pushing every keyword node's
   information to each ancestor (lines 5-12 of Algorithm 1) gives the
   same values because [Klist.union] and [Cid.merge] are associative,
   commutative and idempotent.  Sweeping backwards creates siblings last
   to first, so prepending leaves [rtf_children] in document order. *)
let construct ?(cid_mode = Cid.Approx) (q : Query.t) (rtf : Rtf.t) =
  let doc = q.doc in
  let fresh id =
    {
      id;
      label = (Tree.node doc id).label;
      klist = Klist.empty;
      cid = Cid.empty;
      rtf_children = [];
    }
  in
  (* Keyword-node features come from the index's precomputed table when
     it is available (Approx mode only — the table stores (min, max)
     pairs).  The fallback re-tokenises the node; it covers Exact mode
     and queries built by [of_postings] without a table. *)
  let feature kn =
    match cid_mode with
    | Cid.Approx when Array.length q.approx_cids > 0 -> q.approx_cids.(kn)
    | Cid.Approx | Cid.Exact ->
        Cid.of_words cid_mode (Tree.content_words doc (Tree.node doc kn))
  in
  (* A keyword node's own key number, read through one backward cursor
     per posting list instead of a binary search per list and node:
     [cursors.(i)] is the number of entries of list [i] not yet passed,
     and the sweep only moves it down. *)
  let k = Query.k q in
  let n = Array.length rtf.knodes in
  let last = if n = 0 then rtf.lca else rtf.knodes.(n - 1) in
  (* xkscost: unticked k-bounded: one cursor per keyword list *)
  let cursors = Array.map (fun p -> Xks_util.Bsearch.upper_bound p last) q.postings in
  let own_klist kn =
    let mask = ref Klist.empty in
    (* xkscost: unticked k-bounded: one cursor step-check per keyword list *)
    for i = 0 to k - 1 do
      let p = q.postings.(i) in
      let c = ref cursors.(i) in
      (* xkscost: unticked pre-charged: each cursor passes each posting entry of the RTF's range once; prune_all charged the RTF *)
      while !c > 0 && p.(!c - 1) > kn do
        decr c
      done;
      cursors.(i) <- !c;
      if !c > 0 && p.(!c - 1) = kn then
        mask := Klist.union !mask (Klist.singleton ~k i)
    done;
    !mask
  in
  let root_info = fresh rtf.lca in
  let stack = ref [ root_info ] in
  (* Close the members whose subtree does not reach back to [kn]. *)
  (* xkscost: unticked amortised: each member is closed exactly once across the sweep; prune_all charged the RTF *)
  let rec close kn =
    match !stack with
    | top :: (parent :: _ as rest) when top.id > kn ->
        parent.klist <- Klist.union parent.klist top.klist;
        parent.cid <- Cid.merge parent.cid top.cid;
        stack := rest;
        close kn
    | _ :: _ | [] -> ()
  in
  (* Create the members from below the open member [top] down to [id],
     top-down, appending each to its parent and pushing it. *)
  (* xkscost: unticked pre-charged: creates each path node once; prune_all charged the RTF *)
  let rec open_path (top : info) id =
    let parent_id = (Tree.node doc id).parent in
    let parent = if parent_id = top.id then top else open_path top parent_id in
    let info = fresh id in
    parent.rtf_children <- info :: parent.rtf_children;
    stack := info :: !stack;
    info
  in
  (* xkscost: unticked pre-charged: prune_all ticked one per knode swept here *)
  for j = n - 1 downto 0 do
    let kn = rtf.knodes.(j) in
    close kn;
    let info =
      match !stack with
      | top :: _ when top.id = kn -> top
      | top :: _ -> open_path top kn
      | [] -> assert false (* the root never closes *)
    in
    info.klist <- Klist.union info.klist (own_klist kn);
    info.cid <- Cid.merge info.cid (feature kn)
  done;
  close min_int;
  { doc; root_info }

let root t = t.root_info

type label_group = {
  group_label : Xks_xml.Label.t;
  counter : int;
  chklist : int array;
  group_children : info list;
}

let label_groups info =
  let order = ref [] in
  let groups = Hashtbl.create 8 in
  (* xkscost: unticked pre-charged: one grouping pass over a node's RTF children, inside the pruning walk prune_all charged for *)
  List.iter
    (fun (child : info) ->
      match Hashtbl.find_opt groups child.label with
      | Some members -> members := child :: !members
      | None ->
          Hashtbl.add groups child.label (ref [ child ]);
          order := child.label :: !order)
    info.rtf_children;
  List.rev_map
    (fun label ->
      let members =
        (* [order] only records labels inserted into [groups] above. *)
        match Hashtbl.find_opt groups label with
        | Some members -> List.rev !members
        | None -> assert false
      in
      let chklist =
        List.map (fun (i : info) -> i.klist) members
        |> List.sort_uniq Int.compare |> Array.of_list
      in
      {
        group_label = label;
        counter = List.length members;
        chklist;
        group_children = members;
      })
    !order

(* Descend from the root through the child whose subtree holds [id]. *)
let info_of t id =
  let contains (info : info) =
    info.id <= id && id <= (Tree.node t.doc info.id).subtree_end
  in
  (* xkscost: unticked off the search path: lookups serve tests and explanations, never the pruning walk *)
  let rec descend (info : info) =
    if info.id = id then Some info else child info.rtf_children
  (* xkscost: unticked off the search path: one scan of a member's RTF children per level *)
  and child = function
    | [] -> None
    | c :: rest -> if contains c then descend c else child rest
  in
  if contains t.root_info then descend t.root_info else None

module Content_table = Hashtbl.Make (struct
  type t = info

  let equal (a : info) (b : info) = a.klist = b.klist && Cid.equal a.cid b.cid
  let hash (a : info) = (a.klist * 65599) + Cid.hash a.cid
end)
