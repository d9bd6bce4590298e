(** The node data structure of paper section 4.1, and the constructing
    step of [pruneRTF].

    For each node of a raw RTF we keep its "Self Info" — Dewey code,
    label, [kList] (tree keyword set as a key number) and [cID] (content
    feature of its tree content set) — and its "Children Info": the RTF
    children grouped by distinct label, each group carrying the sorted
    distinct key numbers ([chkList]) and the children's cIDs, which is
    everything Definition 4 needs.

    The constructing step sweeps the RTF's keyword nodes once, in
    reverse document order, keeping the open path from the RTF root on a
    stack.  Each member is created the first time the sweep reaches it
    and prepended to its parent, so children come out in document order
    without sorting; a keyword node's own [kList] comes from one cursor
    per posting list that only moves backwards.  When the sweep leaves a
    member's subtree, the member folds its [kList]/[cID] into its parent.
    This equals the paper's lines 5–12 — each keyword node's information
    pushed to every ancestor up to the RTF root, with the line 11–12 fix —
    because key-number union and [cID] merging are associative,
    commutative and idempotent.  The whole step is linear in the raw RTF
    (plus the posting entries inside the RTF root's range) and builds no
    id-indexed side table. *)

type info = private {
  id : int;
  label : Xks_xml.Label.t;
  mutable klist : Xks_index.Klist.t;  (** tree keyword set (key number) *)
  mutable cid : Xks_index.Cid.t;  (** feature of the tree content set *)
  mutable rtf_children : info list;  (** children within the RTF, document order *)
}

type t
(** The constructed info tree for one RTF. *)

val construct : ?cid_mode:Xks_index.Cid.mode -> Query.t -> Rtf.t -> t
(** Build the info tree of a raw RTF: one {!info} per RTF member (keyword
    nodes and connecting path nodes), with [klist]/[cid] aggregated bottom
    up.  Keyword-node contents are read from the document; path nodes
    contribute no content of their own (the paper's tree content set only
    unions {e keyword} nodes). *)

val root : t -> info

type label_group = {
  group_label : Xks_xml.Label.t;
  counter : int;  (** number of children with this label *)
  chklist : int array;  (** sorted distinct key numbers of the group *)
  group_children : info list;  (** document order *)
}

val label_groups : info -> label_group list
(** The "Children Info" of a node: its RTF children grouped by label, in
    order of first appearance. *)

val info_of : t -> int -> info option
(** Look up the info of an RTF member by node id; [None] for any node
    outside the RTF.  Descends from the root through the child whose
    subtree holds the id, so it costs the fan-out summed along the path:
    meant for tests and explanations, not for the pruning walk. *)

module Content_table : Hashtbl.S with type key = info
(** Infos hashed and compared by [(klist, cid)] only — the key of
    Definition 4 rule 2(b), under which siblings with equal keyword sets
    and equal content features are duplicates. *)
