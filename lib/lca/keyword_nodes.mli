(** Keyword-node sets: the sorted union of posting lists over one id
    interval.

    Both the full pipeline's keyword-node set ({!Xks_core.Rtf}) and the
    knodes of a top-k winner ({!Topk}) come from this one k-way merge
    of already-sorted lists, so the two agree by construction. *)

val union :
  ?budget:Xks_robust.Budget.t ->
  int array array ->
  lo:int ->
  hi:int ->
  skip:int array ->
  int array
(** [union postings ~lo ~hi ~skip] is the ascending, duplicate-free
    union of the ids of [postings] (each sorted ascending) that lie in
    [lo .. hi] and in none of the ranges of [skip]: flat
    [(start, end)] pairs, disjoint and ascending.  A skip range is
    jumped with one binary search per list.  Time O(k × (n + r log n))
    for n merged ids and r skip ranges.  [budget] is ticked once per
    merge step.
    @raise Xks_robust.Budget.Exhausted when the budget runs out. *)
