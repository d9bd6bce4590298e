(** Path-scoped keyword search.

    Combines the {!Xks_xml.Path} subset with the keyword pipeline — the
    "keyword proximity search in a structural query language" integration
    the paper's related work surveys: the path selects scope nodes, the
    keyword nodes are restricted to their subtrees, and ValidRTF (or
    MaxMatch) runs unchanged on the filtered posting lists, so the
    results are meaningful RTFs that live inside the selected scopes.

    {[
      Engine.search_query
        (Scoped.query (Engine.index engine) ~path:"//closed_auctions"
           [ "egypt"; "leon" ])
    ]} *)

val restrict_postings :
  Xks_xml.Tree.t -> scope:int list -> int array array -> int array array
(** Keep only posting entries lying in the subtree of some scope node
    (scope ids must be sorted, document order). *)

val query :
  Xks_index.Inverted.t -> path:string -> string list -> Query.t
(** Prepared query whose posting lists are restricted to the subtrees
    selected by [path].
    @raise Invalid_argument on a malformed path or empty query. *)
