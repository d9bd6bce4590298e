(** Dynamic invariant checks — the runtime complement of [xkslint].

    Every check returns the list of violated invariants (empty = clean)
    rather than raising, so callers can aggregate across a workload and
    report everything at once.  The checks cover the fragile implicit
    contracts the pipeline relies on:

    - posting lists are sorted, duplicate-free and in-range;
    - keyword-node arrays are in document order, and preorder-rank order
      agrees with {!Xks_xml.Dewey.compare};
    - RTFs are well-formed (Definition 2): keyword nodes inside the LCA
      subtree, genuinely matching a query keyword, and jointly covering
      every keyword;
    - fragments are connected (every member's parent is a member);
    - the node-info tree of every RTF matches its definition (per
      member: keyword set, content feature, RTF children, lookup);
    - valid-contributor pruning respects its Definition 4
      post-conditions (subset of the raw RTF, root preserved, no query
      keyword lost, a single child of its label kept). *)

type violation = { rule : string; detail : string }

val to_string : violation -> string
(** ["[rule] detail"]. *)

val posting : ?word:string -> Xks_xml.Tree.t -> int array -> violation list
(** Sorted ascending, duplicate-free, every id inside the document. *)

val index : Xks_index.Inverted.t -> violation list
(** {!posting} over the whole vocabulary. *)

val doc_order : Xks_xml.Tree.t -> int array -> violation list
(** The id array is in document order {e by Dewey code}: catches both
    unsorted arrays and any divergence between preorder ranks and
    {!Xks_xml.Dewey.compare}. *)

val rtf :
  ?require_coverage:bool -> Xks_core.Query.t -> Xks_core.Rtf.t ->
  violation list
(** Well-formedness of one raw RTF.  [require_coverage] (default [true])
    additionally demands that the dispatched keyword nodes cover every
    query keyword — guaranteed when the LCA list is the ELCA set. *)

val node_info :
  ?cid_mode:Xks_index.Cid.mode -> Xks_core.Query.t -> Xks_core.Rtf.t ->
  violation list
(** The constructing step of [pruneRTF] ({!Xks_core.Node_info.construct},
    default mode [Approx]) against its definition.  For every raw-RTF
    member [m]: [klist] is the union of {!Xks_core.Query.node_klist} over
    the RTF's keyword nodes in [m]'s subtree, [cid] the merge of their
    content features (re-tokenised, not read from the index's table),
    [rtf_children] the ascending members whose parent is [m], and
    [info_of] finds [m].  [info_of] must also return [None] for the
    document children of members that are not members themselves and
    for the nodes just outside the RTF root's id range. *)

val fragment : Xks_xml.Tree.t -> Xks_core.Fragment.t -> violation list
(** Connectivity: root is a member, every member lies in the root's
    subtree and has its parent in the fragment. *)

val valid_contributor_post :
  ?cid_mode:Xks_index.Cid.mode -> Xks_core.Query.t -> Xks_core.Rtf.t ->
  Xks_core.Fragment.t -> violation list
(** Definition 4 post-conditions of [Prune.valid_contributor] applied to
    one RTF and its pruned fragment. *)
