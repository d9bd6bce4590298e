(** Label-constrained query terms (XSearch-style, the paper's related
    work on extending the keyword query with more information).

    A term is either a bare keyword ["xml"] or ["label:keyword"]
    (["title:xml"]), restricting matches to nodes with that element
    label; ["label:"] alone matches every node with the label.  The
    filtered posting lists feed the ordinary pipeline through
    {!Engine.search_query}, so ValidRTF / MaxMatch semantics, pruning,
    ranking and budgets apply unchanged. *)

type term = {
  label : string option;  (** required element label, if any *)
  keyword : string;  (** [""] for label-only terms *)
}

val parse_term : string -> term
(** ["title:xml"] -> label [Some "title"], keyword ["xml"]; ["xml"] ->
    bare keyword; ["title:"] -> label-only.
    @raise Invalid_argument on [""] and [":"], or when either part
    normalises to nothing. *)

val term_to_string : term -> string

val posting : Xks_index.Inverted.t -> term -> int array
(** Sorted ids of the nodes matching the term. *)

val query : Xks_index.Inverted.t -> string list -> Query.t
(** Parse each string as a term and build the prepared query (keyword
    names keep the ["label:keyword"] spelling so the bitsets stay
    distinct).  The index's precomputed content features travel with
    it, so pruning never re-tokenises keyword nodes.
    @raise Invalid_argument as {!parse_term} / {!Query.of_postings}. *)
