module Tree = Xks_xml.Tree
module Bsearch = Xks_util.Bsearch
module Int_vec = Xks_util.Int_vec
module Budget = Xks_robust.Budget
module Trace = Xks_trace.Trace

(* Witness scan of one keyword list [p] over [u]'s interval
   [u .. u_end], from position [pos].  [ranges.(ri .. rend - 1)] are the
   child ranges not yet passed, as ascending (lo, hi) pairs.  The probe
   position only moves forward, so the ranges are consumed as it goes:
   those ending before the probe are dropped for good, and the first
   one left is the only one that can hold it (they are disjoint).
   [ranges] only accelerates the scan; correctness rests on the [fc]
   validation of each probe. *)
let rec probe budget doc postings p u u_end ranges ri rend pos =
  Budget.tick_opt budget 1;
  if pos > u_end then false
  else
    let j = Bsearch.lower_bound p pos in
    if j = Array.length p || p.(j) > u_end then false
    else
      let x = p.(j) in
      (* xkscost: unticked amortised: each child range is skipped once per posting; probe ticks each probe *)
      let ri = skip_before ranges ri rend x in
      if ri < rend && Int_vec.get ranges ri <= x then
        probe budget doc postings p u u_end ranges (ri + 2) rend
          (Int_vec.get ranges (ri + 1) + 1)
      else
        let f = Probe.fc doc postings x in
        assert (f >= 0) (* no list is empty here *);
        (* [f] is [u] or lies below it: the probe is a witness iff no
           full container strictly below [u] holds it. *)
        f <= u
        || probe budget doc postings p u u_end ranges ri rend
             ((Tree.node doc f).subtree_end + 1)

(* xkscost: unticked amortised: drops each child range once per posting; probe ticks each probe *)
and skip_before ranges ri rend x =
  if ri < rend && Int_vec.get ranges (ri + 1) < x then
    skip_before ranges (ri + 2) rend x
  else ri

(* xkscost: unticked k-bounded: one witness scan per keyword list; probe ticks each probe *)
let rec witnessed budget doc postings u u_end ranges first i =
  i = Array.length postings
  || probe budget doc postings postings.(i) u u_end ranges first
       (Int_vec.length ranges) u
     && witnessed budget doc postings u u_end ranges first (i + 1)

let is_elca ?budget doc postings u ranges first =
  witnessed budget doc postings u (Tree.node doc u).subtree_end ranges first 0

(* One ELCA scan.  [stack] holds the open candidates, bottom first, as
   (id, subtree_end, first) triples: [first] is where the candidate's
   child ranges start in [ranges], and they run up to the next entry's
   [first] (or the end, for the top entry).  A popped entry's slice is
   cut off and its own range handed to the entry below, so every slice
   is ascending and lies above the slices under it. *)
type scan = {
  doc : Tree.t;
  postings : int array array;
  budget : Budget.t option;
  stack : Int_vec.t;
  ranges : Int_vec.t;
  out : Int_vec.t;  (* ELCA ids, in pop order *)
}

(* Pop the top entry, emit it if it passes the check, and hand its
   range to the entry below (its ancestor) when there is one.  Returns
   the popped id. *)
let pop_and_check s =
  Trace.incr Trace.Elca_popped;
  (* Ticked so the post-driver drain (and the unwind spine) stays under
     the deadline even when no new occurrence arrives. *)
  Budget.tick_opt s.budget 1;
  let first = Int_vec.pop s.stack in
  let u_end = Int_vec.pop s.stack in
  let u = Int_vec.pop s.stack in
  if is_elca ?budget:s.budget s.doc s.postings u s.ranges first then
    Int_vec.push s.out u;
  Int_vec.truncate s.ranges first;
  if Int_vec.length s.stack > 0 then begin
    Int_vec.push s.ranges u;
    Int_vec.push s.ranges u_end
  end;
  u

(* Close the candidates that are not ancestors of [x].  When the stack
   empties, the range of the last one popped becomes [x]'s first child
   range if [x] contains it. *)
(* xkscost: unticked amortised: each iteration pops one entry, and pop_and_check ticks every pop *)
let rec unwind s x x_end =
  let n = Int_vec.length s.stack in
  if n > 0 then begin
    let top = Int_vec.get s.stack (n - 3) in
    if not (top <= x && x <= Int_vec.get s.stack (n - 2)) then begin
      let e = pop_and_check s in
      if Int_vec.length s.stack = 0 && x <= e && e <= x_end then begin
        Int_vec.push s.ranges e;
        Int_vec.push s.ranges (Tree.node s.doc e).subtree_end
      end;
      unwind s x x_end
    end
  end

let process s v =
  Trace.incr Trace.Nodes_visited;
  Budget.tick_opt s.budget 1;
  let x = Probe.fc s.doc s.postings v in
  let x_end = (Tree.node s.doc x).subtree_end in
  unwind s x x_end;
  let n = Int_vec.length s.stack in
  (* An open candidate equal to [x] needs nothing: anything popped went
     to it. *)
  if n = 0 || Int_vec.get s.stack (n - 3) <> x then begin
    Trace.incr Trace.Elca_pushed;
    Int_vec.push s.stack x;
    Int_vec.push s.stack x_end;
    Int_vec.push s.stack (if n = 0 then 0 else Int_vec.length s.ranges)
  end

let elca ?budget doc postings =
  let k = Array.length postings in
  (* xkscost: unticked k-bounded: one emptiness test per keyword list *)
  if k = 0 || Array.exists (fun s -> Array.length s = 0) postings then []
  else begin
    let s1 = postings.(Probe.smallest_list_index postings) in
    Xks_util.Scratch.with_ints (fun stack ->
        Xks_util.Scratch.with_ints (fun ranges ->
            Xks_util.Scratch.with_ints (fun out ->
                let s = { doc; postings; budget; stack; ranges; out } in
                for i = 0 to Array.length s1 - 1 do
                  process s s1.(i)
                done;
                while Int_vec.length stack > 0 do
                  ignore (pop_and_check s : int)
                done;
                Int_vec.sort_uniq out;
                let acc = ref [] in
                (* xkscost: unticked output-bounded: one cons per ELCA already found *)
                for i = Int_vec.length out - 1 downto 0 do
                  acc := Int_vec.get out i :: !acc
                done;
                !acc)))
  end
