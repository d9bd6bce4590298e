module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey
module Bsearch = Xks_util.Bsearch

let ancestor_at doc (n : Tree.node) d =
  if d < 0 || d > Dewey.depth n.dewey then invalid_arg "Probe.ancestor_at";
  let rec up (n : Tree.node) =
    if Dewey.depth n.dewey = d then n
    else
      match Tree.parent_node doc n with
      | Some p -> up p
      | None -> assert false (* d >= 0 = depth of the root *)
  in
  up n

let closest_lca_depth doc posting (x : Tree.node) =
  if Array.length posting = 0 then None
  else
    let depth_with id = Dewey.lca_depth x.dewey (Tree.node doc id).dewey in
    let left = Bsearch.left_match posting x.id in
    let right = Bsearch.right_match posting x.id in
    match (left, right) with
    | None, None -> None
    | Some l, None -> Some (depth_with l)
    | None, Some r -> Some (depth_with r)
    | Some l, Some r -> Some (Int.max (depth_with l) (depth_with r))

let fc doc postings (x : Tree.node) =
  (* xkscost: unticked k-bounded: two binary-search probes per keyword list; every caller ticks per candidate before probing *)
  let rec loop i depth =
    if i = Array.length postings then Some depth
    else
      match closest_lca_depth doc postings.(i) x with
      | None -> None
      | Some d -> loop (i + 1) (Int.min depth d)
  in
  match loop 0 (Dewey.depth x.dewey) with
  | None -> None
  | Some depth -> Some (ancestor_at doc x depth)

let smallest_list_index postings =
  if Array.length postings = 0 then invalid_arg "Probe.smallest_list_index";
  let best = ref 0 in
  (* xkscost: unticked k-bounded: one length read per keyword list *)
  for i = 1 to Array.length postings - 1 do
    if Array.length postings.(i) < Array.length postings.(!best) then best := i
  done;
  !best
