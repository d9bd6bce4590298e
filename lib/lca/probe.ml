module Tree = Xks_xml.Tree
module Bsearch = Xks_util.Bsearch

let ancestor_at doc (n : Tree.node) d =
  if d < 0 || d > n.depth then invalid_arg "Probe.ancestor_at";
  (* xkscost: unticked depth-bounded: one parent step per level above [d]; callers tick per probe *)
  let rec up (n : Tree.node) =
    if n.depth = d then n else up (Tree.node doc n.parent)
  in
  up n

(* The first ancestor-or-self of [a] whose interval holds [l] or [r]:
   [l] precedes the probe and [r] follows it (or equals it), so once
   either lies in [a.id .. a.subtree_end] the subtree of [a] holds an
   occurrence.  The climb never passes the root, whose interval holds
   every id. *)
(* xkscost: unticked depth-bounded: one parent step per level, shared by all keyword lists of a probe; callers tick per probe *)
let rec climb doc l r (a : Tree.node) =
  if l >= a.id || r <= a.subtree_end then a
  else climb doc l r (Tree.node doc a.parent)

(* xkscost: unticked k-bounded: one binary search per keyword list, then the shared depth-bounded climb; callers tick per probe *)
let rec fc_from doc postings x i (a : Tree.node) =
  if i = Array.length postings then a.id
  else
    let p = postings.(i) in
    let n = Array.length p in
    if n = 0 then -1
    else
      let j = Bsearch.lower_bound p x in
      let l = if j > 0 then p.(j - 1) else -1 in
      let r = if j < n then p.(j) else max_int in
      fc_from doc postings x (i + 1) (climb doc l r a)

(* The deepest ancestor-or-self holding list i is the first one the
   climb from [x] reaches; going up only widens the interval, so the
   lists can be taken one after the other on one shared walk and the
   walk ends at the deepest node holding all of them. *)
let fc doc postings x = fc_from doc postings x 0 (Tree.node doc x)

let smallest_list_index postings =
  if Array.length postings = 0 then invalid_arg "Probe.smallest_list_index";
  let best = ref 0 in
  (* xkscost: unticked k-bounded: one length read per keyword list *)
  for i = 1 to Array.length postings - 1 do
    if Array.length postings.(i) < Array.length postings.(!best) then best := i
  done;
  !best
