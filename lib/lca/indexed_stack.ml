module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey
module Bsearch = Xks_util.Bsearch
module Trace = Xks_trace.Trace

type entry = {
  node : Tree.node;  (* an ELCA candidate: a full container *)
  mutable child_ranges : (int * int) list;
      (* preorder ranges of candidate children already determined, most
         recent first; disjoint, each inside [node]'s range *)
}

(* Does [u]'s subtree hold, for every keyword, a witness outside every
   full container strictly below [u]?  [child_ranges] only accelerates the
   scan; correctness rests on the [fc] validation of each probe. *)
let is_elca ?budget doc postings (u : Tree.node) child_ranges =
  let ranges = List.rev child_ranges (* ascending start *) in
  let u_depth = Dewey.depth u.dewey in
  let witness_for posting =
    (* The probe position only moves forward, so [ranges] is consumed as
       it goes: ranges ending before the probe are dropped for good, and
       the head is the only one that can hold it (they are disjoint). *)
    let rec probe pos ranges =
      Xks_robust.Budget.tick_opt budget 1;
      if pos > u.subtree_end then false
      else
        match Bsearch.first_in_range posting ~lo:pos ~hi:u.subtree_end with
        | None -> false
        | Some x -> (
            match skip_before x ranges with
            | (lo, hi) :: rest when lo <= x -> probe (hi + 1) rest
            | rest -> (
                match Probe.fc doc postings (Tree.node doc x) with
                | None -> assert false (* no list is empty here *)
                | Some f ->
                    Dewey.depth f.dewey <= u_depth
                    || probe (f.subtree_end + 1) rest))
    (* xkscost: unticked amortised: drops each child range once per posting; probe ticks each probe *)
    and skip_before x = function
      | (_, hi) :: rest when hi < x -> skip_before x rest
      | ranges -> ranges
    in
    probe u.id ranges
  in
  Array.for_all witness_for postings

let elca ?budget doc postings =
  let k = Array.length postings in
  (* xkscost: unticked k-bounded: one emptiness test per keyword list *)
  if k = 0 || Array.exists (fun s -> Array.length s = 0) postings then []
  else begin
    let s1 = postings.(Probe.smallest_list_index postings) in
    let results = ref [] in
    let stack = ref [] in
    let ancestor_or_self (a : Tree.node) (b : Tree.node) =
      Dewey.is_ancestor_or_self a.dewey b.dewey
    in
    (* Pop [e], emit it if it passes the check, and hand its range to the
       entry below (its ancestor when the stack is non-empty). *)
    let pop_and_check () =
      match !stack with
      | [] -> assert false
      | e :: rest ->
          Trace.incr Trace.Elca_popped;
          (* Ticked so the post-driver drain (and the unwind spine) stays
             under the deadline even when no new occurrence arrives. *)
          Xks_robust.Budget.tick_opt budget 1;
          stack := rest;
          if is_elca ?budget doc postings e.node e.child_ranges then
            results := e.node.id :: !results;
          let range = (e.node.id, e.node.subtree_end) in
          (match rest with
          | parent :: _ -> parent.child_ranges <- range :: parent.child_ranges
          | [] -> ());
          range
    in
    let process v =
      Trace.incr Trace.Nodes_visited;
      Xks_robust.Budget.tick_opt budget 1;
      let x =
        match Probe.fc doc postings (Tree.node doc v) with
        | Some n -> n
        | None -> assert false
      in
      (* Close candidates that are not ancestors of [x]; collect the
         ranges of those lying under [x] (they become [x]'s candidate
         children when the stack empties below them). *)
      let pending = ref [] in
      let rec unwind () =
        match !stack with
        | e :: _ when not (ancestor_or_self e.node x) ->
            let range = pop_and_check () in
            if !stack = [] && ancestor_or_self x e.node then
              pending := range :: !pending;
            unwind ()
        | _ -> ()
      in
      unwind ();
      match !stack with
      | e :: _ when e.node.id = x.id ->
          (* Candidate already open; nothing to add ([pending] is empty:
             anything popped went to this entry). *)
          ()
      | _ ->
          Trace.incr Trace.Elca_pushed;
          stack := { node = x; child_ranges = !pending } :: !stack
    in
    Array.iter process s1;
    while !stack <> [] do
      ignore (pop_and_check ())
    done;
    List.sort Int.compare !results
  end
