(** Posting-list probes shared by the LCA algorithms.

    All probes work on posting lists: sorted arrays of node ids (document
    order), and on the preorder interval [id .. subtree_end] of each
    node, so an ancestor test is two integer comparisons.  The classic
    [lm]/[rm] probes find the closest occurrences of a keyword around a
    node; combining them per keyword yields [fc x], the deepest
    {e full container} of [x] — the deepest ancestor-or-self of [x]
    whose subtree contains every query keyword.  [fc] is also the
    paper's [elca_can]/[slca_can] candidate function when [x] comes from
    the smallest posting list. *)

val ancestor_at : Xks_xml.Tree.t -> Xks_xml.Tree.node -> int -> Xks_xml.Tree.node
(** [ancestor_at doc n d] is the ancestor of [n] at depth [d].
    @raise Invalid_argument if [d] exceeds the depth of [n]. *)

val fc : Xks_xml.Tree.t -> int array array -> int -> int
(** [fc doc postings x] is the id of the deepest full container of the
    node with id [x]: the deepest ancestor-or-self of [x] whose subtree
    contains at least one occurrence of every keyword.  [-1] when some
    posting list is empty (then no full container exists at all).

    Per list, one binary search gives the neighbours [l < x <= r] of
    [x]; an ancestor [a] holds an occurrence iff [l >= a.id] or
    [r <= a.subtree_end].  One walk up from [x], shared by all lists,
    stops at the first ancestor that holds every list.  Time
    O(k log |S| + depth); allocates nothing. *)

val smallest_list_index : int array array -> int
(** Index of the shortest posting list (ties broken by lower index).
    @raise Invalid_argument on an empty array. *)
