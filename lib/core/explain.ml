module Klist = Xks_index.Klist
module Dewey = Xks_xml.Dewey
module Tree = Xks_xml.Tree

type reason =
  | Kept_root
  | Kept_unique_label
  | Kept_maximal
  | Kept_distinct_content
  | Discarded_covered of int
  | Discarded_duplicate of int
  | Discarded_with_ancestor of int

type decision = { node : int; reason : reason }

let kept d =
  match d.reason with
  | Kept_root | Kept_unique_label | Kept_maximal | Kept_distinct_content ->
      true
  | Discarded_covered _ | Discarded_duplicate _ | Discarded_with_ancestor _ ->
      false

(* [covering_sibling chklist children] maps a keyword set of the sorted,
   deduplicated [chklist] of [children] to the first child, in document
   order, whose keyword set strictly covers it.  Each distinct set is
   resolved once, from the first child carrying each larger set, so a
   wide group costs one pass plus |chklist|^2 rather than a sibling scan
   per child. *)
let covering_sibling chklist children =
  let n = Array.length chklist in
  let first = Array.make n (-1) in
  List.iter
    (fun (ch : Node_info.info) ->
      let j = Xks_util.Bsearch.lower_bound chklist ch.klist in
      if first.(j) < 0 then first.(j) <- ch.id)
    children;
  let resolved = Array.make n None in
  fun klist ->
    let j = Xks_util.Bsearch.lower_bound chklist klist in
    match resolved.(j) with
    | Some cover -> cover
    | None ->
        (* A strict superset has a strictly larger key number; children
           come in document order, so the smallest id is the first. *)
        let best = ref max_int in
        for i = j + 1 to n - 1 do
          if Klist.subset klist chklist.(i) then best := Int.min !best first.(i)
        done;
        let cover = if !best = max_int then None else Some !best in
        resolved.(j) <- Some cover;
        cover

(* Decisions within one label group under Definition 4, mirroring
   Prune.valid_children exactly (content features tracked per keyword
   set). *)
let group_decisions (g : Node_info.label_group) =
  if g.counter = 1 then
    List.map
      (fun (ch : Node_info.info) -> (ch, Kept_unique_label))
      g.group_children
  else begin
    let covering = covering_sibling g.chklist g.group_children in
    (* (klist, cid) of each kept child -> its id *)
    let owners = Node_info.Content_table.create 8 in
    let klist_kept = Array.make (Array.length g.chklist) false in
    List.map
      (fun (ch : Node_info.info) ->
        match covering ch.klist with
        | Some sib -> (ch, Discarded_covered sib)
        | None -> (
            match Node_info.Content_table.find_opt owners ch with
            | Some owner -> (ch, Discarded_duplicate owner)
            | None ->
                Node_info.Content_table.add owners ch ch.id;
                let j = Xks_util.Bsearch.lower_bound g.chklist ch.klist in
                if klist_kept.(j) then (ch, Kept_distinct_content)
                else begin
                  klist_kept.(j) <- true;
                  (ch, Kept_maximal)
                end))
      g.group_children
  end

(* Contributor (MaxMatch): label-blind coverage only. *)
let contributor_decisions (info : Node_info.info) =
  let siblings = info.rtf_children in
  let klists =
    List.map (fun (c : Node_info.info) -> c.klist) siblings
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  let covering = covering_sibling klists siblings in
  List.map
    (fun (ch : Node_info.info) ->
      match covering ch.klist with
      | Some sib -> (ch, Discarded_covered sib)
      | None -> (ch, Kept_maximal))
    siblings

let collect child_decisions t =
  let acc = ref [] in
  let rec discard_subtree ancestor (info : Node_info.info) =
    List.iter
      (fun (c : Node_info.info) ->
        acc := { node = c.id; reason = Discarded_with_ancestor ancestor } :: !acc;
        discard_subtree ancestor c)
      info.rtf_children
  in
  let rec go (info : Node_info.info) =
    List.iter
      (fun ((ch : Node_info.info), reason) ->
        acc := { node = ch.id; reason } :: !acc;
        let d = { node = ch.id; reason } in
        if kept d then go ch else discard_subtree ch.id ch)
      (child_decisions info)
  in
  let root = Node_info.root t in
  acc := [ { node = root.id; reason = Kept_root } ];
  go root;
  List.sort (fun a b -> Int.compare a.node b.node) !acc

let valid_contributor t =
  collect
    (fun info -> List.concat_map group_decisions (Node_info.label_groups info))
    t

let contributor t = collect contributor_decisions t

let dewey_string doc id = Dewey.to_string (Tree.dewey doc (Tree.node doc id))

let reason_to_string doc = function
  | Kept_root -> "kept: RTF root"
  | Kept_unique_label -> "kept: unique label among its siblings (rule 1)"
  | Kept_maximal -> "kept: keyword set covered by no sibling (rule 2a)"
  | Kept_distinct_content -> "kept: same keywords but new content (rule 2b)"
  | Discarded_covered sib ->
      Printf.sprintf "discarded: keyword set strictly covered by %s (rule 2a)"
        (dewey_string doc sib)
  | Discarded_duplicate sib ->
      Printf.sprintf "discarded: duplicates the content of %s (rule 2b)"
        (dewey_string doc sib)
  | Discarded_with_ancestor a ->
      Printf.sprintf "discarded: inside the pruned subtree of %s"
        (dewey_string doc a)

let render doc decisions =
  let line d =
    let node = Tree.node doc d.node in
    Printf.sprintf "%s (%s): %s"
      (Dewey.to_string (Tree.dewey doc node))
      (Tree.label_name doc node)
      (reason_to_string doc d.reason)
  in
  String.concat "\n" (List.map line decisions) ^ "\n"
