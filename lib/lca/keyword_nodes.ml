module Bsearch = Xks_util.Bsearch
module Int_vec = Xks_util.Int_vec
module Budget = Xks_robust.Budget

(* The list whose head is smallest, or -1 when every list is done. *)
(* xkscost: unticked k-bounded: one head comparison per keyword list; the merge step that calls it ticks *)
let rec min_head postings heads ends i best =
  if i = Array.length postings then best
  else if
    heads.(i) < ends.(i)
    && (best < 0 || postings.(i).(heads.(i)) < postings.(best).(heads.(best)))
  then min_head postings heads ends (i + 1) i
  else min_head postings heads ends (i + 1) best

(* Move every head past [hi]. *)
(* xkscost: unticked k-bounded: one binary search per keyword list; the merge step that calls it ticks *)
let rec skip_past postings heads hi i =
  if i < Array.length postings then begin
    heads.(i) <- Int.max heads.(i) (Bsearch.upper_bound postings.(i) hi);
    skip_past postings heads hi (i + 1)
  end

(* One merge step per iteration: ticked so a deadline interrupts the
   union itself.  [si] indexes the first skip range that can still
   hold a later head. *)
let rec merge budget postings heads ends skip si last out =
  Budget.tick_opt budget 1;
  let b = min_head postings heads ends 0 (-1) in
  if b >= 0 then begin
    let v = postings.(b).(heads.(b)) in
    (* xkscost: unticked amortised: each skip range is passed once per merge; the merge ticks every step *)
    let si = advance skip si v in
    if si < Array.length skip && skip.(si) <= v then begin
      skip_past postings heads skip.(si + 1) 0;
      merge budget postings heads ends skip (si + 2) last out
    end
    else begin
      heads.(b) <- heads.(b) + 1;
      if v <> last then Int_vec.push out v;
      merge budget postings heads ends skip si v out
    end
  end

(* Skip ranges ending before [v]: heads only grow, so they never
   matter again. *)
(* xkscost: unticked amortised: each skip range is passed once per merge; the merge ticks every step *)
and advance skip si v =
  if si < Array.length skip && skip.(si + 1) < v then advance skip (si + 2) v
  else si

let union ?budget postings ~lo ~hi ~skip =
  (* xkscost: unticked k-bounded: one binary search per keyword list *)
  let heads = Array.map (fun p -> Bsearch.lower_bound p lo) postings in
  (* xkscost: unticked k-bounded: one binary search per keyword list *)
  let ends = Array.map (fun p -> Bsearch.upper_bound p hi) postings in
  Xks_util.Scratch.with_ints (fun out ->
      merge budget postings heads ends skip 0 min_int out;
      Int_vec.to_array out)
