(* Top-k ELCA retrieval with score-bounded early termination.

   The scan is [Indexed_stack.elca] verbatim — same driver list, same
   stack discipline, same [is_elca] witness check — with two additions:

   1. Each stack entry also tracks [passed]: the preorder ranges of the
      *maximal* already-emitted ELCAs strictly inside it.  When an entry
      pops and passes the witness check, its per-keyword term frequency
      under the RTF dispatch semantics (every keyword occurrence goes to
      the deepest emitted LCA containing it) is

        tf_i = |posting_i ∩ range(u)| − Σ over passed |posting_i ∩ r|

      which is exact because any ELCA nested in [u] is pushed and popped
      while [u] is still on the stack, so [u]'s emitted-descendant set
      is final at its own pop.  A passed child contributes its own range
      to its parent's [passed]; a failed child contributes the ranges it
      had collected (they stay maximal and disjoint).

   2. A consumed-occurrence upper bound drives early exit.  Let
      [consumed_i] be the total tf_i over emitted fragments; the knodes
      of distinct RTFs partition keyword occurrences, so any fragment
      emitted later satisfies tf_i <= avail_i = df_i − consumed_i, and
      [bound ~avail] (monotone in each tf) caps its score.  Once the
      heap holds k fragments and the bound is *strictly* below the
      heap's minimum score, no unseen fragment can enter the top k —
      strictness matters because score ties break toward the smaller
      LCA id, and ancestors (smaller preorder ids) pop late.  The
      check runs at two sites:

      - after each driver occurrence, where success skips the rest of
        the driver scan and the whole drain (all future fragments are
        covered by the bound), and

      - after each drain pop, where success skips the remaining spine.
        This is where the exit usually fires in practice: popping the
        last container of a keyword drives its avail to zero, and the
        bound collapses to -inf — every occurrence of that keyword is
        dispatched, so no surviving ancestor (in particular the root,
        whose witness scan over its accumulated child ranges is the
        single most expensive pop) can still be an ELCA.

      [Topk_pruned_postings] records the total avail at exit time: the
      keyword occurrences the exit freed us from ever dispatching. *)

module Tree = Xks_xml.Tree
module Bsearch = Xks_util.Bsearch
module Int_vec = Xks_util.Int_vec
module Topheap = Xks_util.Topheap
module Budget = Xks_robust.Budget
module Trace = Xks_trace.Trace

type candidate = {
  lca : int;
  score : float;
  tf : int array;
  knodes : int array;
  is_slca : bool;
}

type outcome = { top : candidate list; early_exit : bool; scanned : int }

(* One top-k scan.  [stack] holds the open entries, bottom first, as
   (id, subtree_end, first child range, first passed range) quadruples.
   Child ranges live in [ranges] exactly as in [Indexed_stack].  The
   [passed] accounting — the preorder ranges of the maximal emitted
   ELCAs, disjoint — lives in [passed] as ascending (lo, hi) pairs:
   first the orphans, emitted ranges inside no open entry (when the
   stack empties, the popped entry's ranges survive there until an
   entry containing them is pushed, possibly much later and much
   shallower, e.g. the document root, whose tf must still exclude every
   occurrence dispatched to earlier subtrees), then each open entry's
   slice from its [first passed] slot up to the next entry's.  An entry
   that passes the check replaces its slice by its own range; one that
   fails leaves its slice to the entry below, or to the orphans, in
   place.  A pushed entry [x] claims the suffix with [lo >= x]: ranges
   closed before the scan reached [x]'s occurrence cannot start after
   [x]'s end, and an open ancestor has already claimed every orphan
   inside [x], so the suffix is exactly what [x] contains — a backward
   walk, amortised O(1) per push.  Every range thus stays at the
   deepest open entry containing it, which is what the tf subtraction
   in [emit] needs. *)
type scan = {
  doc : Tree.t;
  postings : int array array;
  budget : Budget.t option;
  score : lca:int -> tf:int array -> float;
  heap : (int array * int array) Topheap.t;  (* tf, passed ranges *)
  consumed : int array;
  tf : int array;  (* reused by every emit *)
  avail : int array;  (* reused by every exit test *)
  stack : Int_vec.t;
  ranges : Int_vec.t;
  passed : Int_vec.t;
}

(* Occurrences of [p] in [u .. u_end] minus those in the passed ranges
   [from ..]: one binary search per range, ticked so an emit over a
   long accounting list is interruptible. *)
let rec count_dispatched s p from acc =
  if from >= Int_vec.length s.passed then acc
  else begin
    Budget.tick_opt s.budget 1;
    count_dispatched s p (from + 2)
      (acc
      - Bsearch.count_in_range p ~lo:(Int_vec.get s.passed from)
          ~hi:(Int_vec.get s.passed (from + 1)))
  end

let passed_slice s from =
  let n = Int_vec.length s.passed - from in
  Array.init n (fun i -> Int_vec.get s.passed (from + i))

let emit s u u_end from =
  (* xkscost: unticked k-bounded: one tf count per keyword list; count_dispatched ticks per passed range *)
  for i = 0 to Array.length s.postings - 1 do
    let p = s.postings.(i) in
    let c =
      count_dispatched s p from (Bsearch.count_in_range p ~lo:u ~hi:u_end)
    in
    s.tf.(i) <- c;
    s.consumed.(i) <- s.consumed.(i) + c
  done;
  let score = s.score ~lca:u ~tf:s.tf in
  if Topheap.admits s.heap ~score ~id:u then
    ignore
      (Topheap.insert s.heap ~score ~id:u (Array.copy s.tf, passed_slice s from)
        : bool)

(* Pop the top entry; emit it if it passes the check; hand its range
   (and the emitted ranges it accounts for) to the entry below.
   Returns the popped id. *)
let pop_and_check s =
  Trace.incr Trace.Elca_popped;
  (* Ticked so the post-driver drain (and the unwind spine) stays under
     the deadline even when no new occurrence arrives. *)
  Budget.tick_opt s.budget 1;
  let pfirst = Int_vec.pop s.stack in
  let cfirst = Int_vec.pop s.stack in
  let u_end = Int_vec.pop s.stack in
  let u = Int_vec.pop s.stack in
  if Indexed_stack.is_elca ?budget:s.budget s.doc s.postings u s.ranges cfirst
  then begin
    emit s u u_end pfirst;
    Int_vec.truncate s.passed pfirst;
    Int_vec.push s.passed u;
    Int_vec.push s.passed u_end
  end;
  Int_vec.truncate s.ranges cfirst;
  if Int_vec.length s.stack > 0 then begin
    Int_vec.push s.ranges u;
    Int_vec.push s.ranges u_end
  end;
  u

(* xkscost: unticked amortised: each iteration pops one entry, and pop_and_check ticks every pop *)
let rec unwind s x x_end =
  let n = Int_vec.length s.stack in
  if n > 0 then begin
    let top = Int_vec.get s.stack (n - 4) in
    if not (top <= x && x <= Int_vec.get s.stack (n - 3)) then begin
      let e = pop_and_check s in
      if Int_vec.length s.stack = 0 && x <= e && e <= x_end then begin
        Int_vec.push s.ranges e;
        Int_vec.push s.ranges (Tree.node s.doc e).subtree_end
      end;
      unwind s x x_end
    end
  end

(* The first slot of the suffix of [passed] above [floor] whose ranges
   start at or after [x]. *)
(* xkscost: unticked amortised: each passed range is claimed at most once per handoff, and every handoff happens under a ticked pop/push *)
let rec claim_from passed floor x i =
  if i > floor && Int_vec.get passed (i - 2) >= x then
    claim_from passed floor x (i - 2)
  else i

let process s v =
  Trace.incr Trace.Nodes_visited;
  Budget.tick_opt s.budget 1;
  let x = Probe.fc s.doc s.postings v in
  let x_end = (Tree.node s.doc x).subtree_end in
  unwind s x x_end;
  let n = Int_vec.length s.stack in
  if n = 0 || Int_vec.get s.stack (n - 4) <> x then begin
    Trace.incr Trace.Elca_pushed;
    let floor = if n = 0 then 0 else Int_vec.get s.stack (n - 1) in
    Int_vec.push s.stack x;
    Int_vec.push s.stack x_end;
    Int_vec.push s.stack (if n = 0 then 0 else Int_vec.length s.ranges);
    Int_vec.push s.stack
      (claim_from s.passed floor x (Int_vec.length s.passed))
  end

(* Work remains (driver tail or un-popped stack entries): does the
   bound already rule every future fragment out? *)
let exit_now s ~bound =
  Topheap.is_full s.heap
  && begin
       (* xkscost: unticked k-bounded: one length/counter read per keyword *)
       for j = 0 to Array.length s.postings - 1 do
         s.avail.(j) <- Array.length s.postings.(j) - s.consumed.(j)
       done;
       bound ~avail:s.avail < Topheap.min_score s.heap
     end

let note_exit s =
  Trace.incr Trace.Topk_early_exit;
  Trace.add Trace.Topk_pruned_postings
    (* xkscost: unticked k-bounded: sums the k per-keyword avail counters *)
    (Array.fold_left ( + ) 0 s.avail)

let run ?budget ~k ~score ~bound doc postings =
  if k < 1 then invalid_arg "Topk.run: k must be >= 1";
  let nk = Array.length postings in
  (* xkscost: unticked k-bounded: one emptiness test per keyword list *)
  if nk = 0 || Array.exists (fun s -> Array.length s = 0) postings then
    { top = []; early_exit = false; scanned = 0 }
  else begin
    let s1 = postings.(Probe.smallest_list_index postings) in
    let n1 = Array.length s1 in
    let heap = Topheap.create ~capacity:k in
    let early, scanned =
      Xks_util.Scratch.with_ints (fun stack ->
          Xks_util.Scratch.with_ints (fun ranges ->
              Xks_util.Scratch.with_ints (fun passed ->
                  let s =
                    {
                      doc; postings; budget; score; heap;
                      consumed = Array.make nk 0;
                      tf = Array.make nk 0;
                      avail = Array.make nk 0;
                      stack; ranges; passed;
                    }
                  in
                  let early = ref false in
                  let i = ref 0 in
                  while (not !early) && !i < n1 do
                    process s s1.(!i);
                    incr i;
                    if (!i < n1 || Int_vec.length stack > 0) && exit_now s ~bound
                    then early := true
                  done;
                  while (not !early) && Int_vec.length stack > 0 do
                    ignore (pop_and_check s : int);
                    if Int_vec.length stack > 0 && exit_now s ~bound then
                      early := true
                  done;
                  if !early then note_exit s;
                  (!early, !i))))
    in
    (* Materialise keyword nodes only for the k winners: posting entries
       in the winner's range minus its emitted-descendant ranges.
       [passed] is final at a winner's pop and lists every emitted ELCA
       strictly inside it; an ELCA with none below is an SLCA (a full
       container strictly below would hold an SLCA, itself an ELCA). *)
    let top =
      List.map
        (fun (score, lca, (tf, passed)) ->
          let u = Tree.node doc lca in
          {
            lca;
            score;
            tf;
            knodes =
              Keyword_nodes.union ?budget postings ~lo:lca ~hi:u.subtree_end
                ~skip:passed;
            is_slca = Array.length passed = 0;
          })
        (Topheap.to_sorted_list heap)
    in
    { top; early_exit = early; scanned }
  end
