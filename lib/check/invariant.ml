module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey
module Bsearch = Xks_util.Bsearch
module Inverted = Xks_index.Inverted
module Klist = Xks_index.Klist
module Cid = Xks_index.Cid
module Query = Xks_core.Query
module Rtf = Xks_core.Rtf
module Fragment = Xks_core.Fragment
module Node_info = Xks_core.Node_info
module Prune = Xks_core.Prune

type violation = { rule : string; detail : string }

let v rule fmt = Printf.ksprintf (fun detail -> { rule; detail }) fmt
let to_string { rule; detail } = Printf.sprintf "[%s] %s" rule detail

(* ------------------------------------------------------------------ *)
(* Posting lists                                                      *)

let posting ?(word = "?") doc ids =
  let n = Tree.size doc in
  let out = ref [] in
  Array.iteri
    (fun i id ->
      if id < 0 || id >= n then
        out :=
          v "posting-range" "word %S: id %d outside the document (size %d)"
            word id n
          :: !out;
      if i > 0 && ids.(i - 1) >= id then
        out :=
          v "posting-order"
            "word %S: ids.(%d)=%d >= ids.(%d)=%d (unsorted or duplicate)" word
            (i - 1)
            ids.(i - 1)
            i id
          :: !out)
    ids;
  List.rev !out

let index idx =
  let doc = Inverted.doc idx in
  List.concat_map
    (fun word -> posting ~word doc (Inverted.posting idx word))
    (Inverted.vocabulary idx)

(* ------------------------------------------------------------------ *)
(* Document order                                                     *)

let doc_order doc ids =
  let out = ref [] in
  Array.iteri
    (fun i id ->
      if i > 0 then begin
        let prev = ids.(i - 1) in
        let dp = Tree.dewey doc (Tree.node doc prev)
        and dc = Tree.dewey doc (Tree.node doc id) in
        if Dewey.compare dp dc >= 0 then
          out :=
            v "doc-order"
              "node array not in document order at index %d: Dewey %s \
               (id %d) does not precede Dewey %s (id %d)"
              i (Dewey.to_string dp) prev (Dewey.to_string dc) id
            :: !out
      end)
    ids;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* RTF well-formedness                                                *)

let is_keyword_node (q : Query.t) id =
  Array.exists (fun p -> Bsearch.mem p id) q.postings

let rtf ?(require_coverage = true) (q : Query.t) (r : Rtf.t) =
  let doc = q.doc in
  let n = Tree.size doc in
  let out = ref [] in
  let push x = out := x :: !out in
  if r.lca < 0 || r.lca >= n then
    push (v "rtf-root" "LCA id %d outside the document (size %d)" r.lca n)
  else begin
    let root = Tree.node doc r.lca in
    Array.iteri
      (fun i id ->
        if i > 0 && r.knodes.(i - 1) >= id then
          push
            (v "rtf-knodes-order"
               "RTF at %d: keyword nodes unsorted or duplicated at index %d"
               r.lca i);
        if id < 0 || id >= n then
          push (v "rtf-knodes-range" "RTF at %d: keyword node id %d invalid" r.lca id)
        else begin
          if not (Tree.in_subtree ~root (Tree.node doc id)) then
            push
              (v "rtf-containment"
                 "RTF at %d: keyword node %d (Dewey %s) outside the LCA subtree"
                 r.lca id
                 (Dewey.to_string (Tree.dewey doc (Tree.node doc id))));
          if not (is_keyword_node q id) then
            push
              (v "rtf-keyword-node"
                 "RTF at %d: member %d matches no query keyword" r.lca id)
        end)
      r.knodes;
    if require_coverage then begin
      let k = Query.k q in
      let mask =
        Array.fold_left
          (fun m id -> Klist.union m (Query.node_klist q id))
          Klist.empty r.knodes
      in
      if not (Klist.is_full ~k mask) then
        push
          (v "rtf-coverage"
             "RTF at %d: keyword nodes cover only %d of %d query keywords"
             r.lca (Klist.cardinal mask) k)
    end
  end;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Node-info construction (paper section 4.1)                         *)

(* The constructing step against its definition, member by member: the
   keyword nodes below a member are the run of the sorted [r.knodes]
   inside its id range, its self info folds theirs, and its RTF
   children are the members whose parent it is. *)
let node_info ?(cid_mode = Cid.Approx) (q : Query.t) (r : Rtf.t) =
  let doc = q.doc in
  let out = ref [] in
  let push x = out := x :: !out in
  let t = Node_info.construct ~cid_mode q r in
  let raw = Rtf.raw_fragment q r in
  let feature kn =
    Cid.of_words cid_mode (Tree.content_words doc (Tree.node doc kn))
  in
  let children = Hashtbl.create (Array.length raw.members) in
  Array.iter
    (fun id ->
      if id <> r.lca then begin
        let parent = (Tree.node doc id).parent in
        let prev = Option.value ~default:[] (Hashtbl.find_opt children parent) in
        Hashtbl.replace children parent (id :: prev)
      end)
    raw.members;
  if (Node_info.root t).id <> r.lca then
    push
      (v "construct-root" "RTF at %d: info tree rooted at %d" r.lca
         (Node_info.root t).id);
  Array.iter
    (fun m ->
      let node = Tree.node doc m in
      let lo = Bsearch.lower_bound r.knodes m in
      let hi = Bsearch.upper_bound r.knodes node.subtree_end in
      let klist = ref Klist.empty and cid = ref Cid.empty in
      for i = lo to hi - 1 do
        klist := Klist.union !klist (Query.node_klist q r.knodes.(i));
        cid := Cid.merge !cid (feature r.knodes.(i))
      done;
      let expected_children =
        List.rev (Option.value ~default:[] (Hashtbl.find_opt children m))
      in
      match Node_info.info_of t m with
      | None ->
          push (v "construct-info-of" "RTF at %d: info_of misses member %d" r.lca m)
      | Some info ->
          if info.id <> m then
            push
              (v "construct-info-of" "RTF at %d: info_of %d returned node %d"
                 r.lca m info.id);
          if info.klist <> !klist then
            push
              (v "construct-klist"
                 "RTF at %d: member %d has key number %d, its keyword nodes \
                  give %d"
                 r.lca m info.klist !klist);
          if not (Cid.equal info.cid !cid) then
            push
              (v "construct-cid"
                 "RTF at %d: member %d has cID %s, its keyword nodes give %s"
                 r.lca m
                 (Format.asprintf "%a" Cid.pp info.cid)
                 (Format.asprintf "%a" Cid.pp !cid));
          let got = List.map (fun (c : Node_info.info) -> c.id) info.rtf_children in
          if got <> expected_children then
            push
              (v "construct-children"
                 "RTF at %d: member %d lists RTF children [%s], expected [%s]"
                 r.lca m
                 (String.concat "; " (List.map string_of_int got))
                 (String.concat "; " (List.map string_of_int expected_children))))
    raw.members;
  (* Non-members next to the RTF: the document children of members left
     out of it, and the nodes just outside the root's id range. *)
  let root_end = (Tree.node doc r.lca).subtree_end in
  let outside =
    List.filter
      (fun id -> id >= 0 && id < Tree.size doc)
      [ r.lca - 1; root_end + 1 ]
  in
  let frontier =
    Array.fold_left
      (fun acc m ->
        Array.fold_left
          (fun acc (c : Tree.node) ->
            if Fragment.mem raw c.id then acc else c.id :: acc)
          acc (Tree.node doc m).children)
      outside raw.members
  in
  List.iter
    (fun id ->
      match Node_info.info_of t id with
      | None -> ()
      | Some _ ->
          push
            (v "construct-info-of" "RTF at %d: info_of finds non-member %d"
               r.lca id))
    frontier;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Fragment connectivity                                              *)

let fragment doc (f : Fragment.t) =
  let n = Tree.size doc in
  let out = ref [] in
  let push x = out := x :: !out in
  if f.root < 0 || f.root >= n then
    push (v "fragment-root" "fragment root %d outside the document" f.root)
  else begin
    let root = Tree.node doc f.root in
    if not (Fragment.mem f f.root) then
      push (v "fragment-root" "fragment root %d is not a member" f.root);
    Array.iter
      (fun id ->
        if id < 0 || id >= n then
          push (v "fragment-range" "fragment member %d outside the document" id)
        else begin
          let node = Tree.node doc id in
          if not (Tree.in_subtree ~root node) then
            push
              (v "fragment-containment"
                 "member %d (Dewey %s) outside the subtree of root %d" id
                 (Dewey.to_string (Tree.dewey doc node)) f.root);
          if id <> f.root && not (Fragment.mem f node.parent) then
            push
              (v "fragment-connectivity"
                 "member %d (Dewey %s) is disconnected: parent %d not in \
                  the fragment"
                 id
                 (Dewey.to_string (Tree.dewey doc node))
                 node.parent)
        end)
      f.members
  end;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Valid-contributor post-conditions (Definition 4)                   *)

let covered_keywords (q : Query.t) members =
  Array.fold_left
    (fun m id -> Klist.union m (Query.node_klist q id))
    Klist.empty members

let valid_contributor_post ?cid_mode (q : Query.t) (r : Rtf.t)
    (pruned : Fragment.t) =
  let doc = q.doc in
  let out = ref (fragment doc pruned) in
  let push x = out := x :: !out in
  if pruned.root <> r.lca then
    push
      (v "prune-root" "pruned fragment root %d differs from the RTF LCA %d"
         pruned.root r.lca);
  let raw = Rtf.raw_fragment q r in
  Array.iter
    (fun id ->
      if not (Fragment.mem raw id) then
        push
          (v "prune-subset"
             "pruned fragment member %d is not a member of the raw RTF at %d"
             id r.lca))
    pruned.members;
  (* Keyword preservation: rule 2(a) only discards a child whose keyword
     set is strictly covered by a sibling's, and rule 2(b) keeps one
     representative per keyword-set/content pair — so pruning never
     loses a query keyword the raw RTF covered. *)
  let raw_mask = covered_keywords q raw.members in
  let pruned_mask = covered_keywords q pruned.members in
  if pruned_mask <> raw_mask then
    push
      (v "prune-keyword-loss"
         "RTF at %d: pruning changed keyword coverage (%d keywords before, \
          %d after)"
         r.lca
         (Klist.cardinal raw_mask)
         (Klist.cardinal pruned_mask));
  (* Rule 1: a single child of its label under a kept node is always
     kept. *)
  let info_tree = Node_info.construct ?cid_mode q r in
  let rec walk (info : Node_info.info) =
    if Fragment.mem pruned info.id then begin
      List.iter
        (fun (g : Node_info.label_group) ->
          match (g.counter, g.group_children) with
          | 1, [ only ] ->
              if not (Fragment.mem pruned only.id) then
                push
                  (v "prune-single-child"
                     "RTF at %d: node %d discarded its only '%s'-labelled \
                      child %d (Definition 4 rule 1 keeps it)"
                     r.lca info.id
                     (Tree.label_name doc (Tree.node doc only.id))
                     only.id)
          | _ -> ())
        (Node_info.label_groups info);
      List.iter walk info.rtf_children
    end
  in
  walk (Node_info.root info_tree);
  List.rev !out
