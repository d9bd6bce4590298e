(** XML tree model.

    An XML data is modelled as in the paper: a rooted, ordered, labelled
    tree [T = (r, V, E, Sigma, lambda)] where every node carries a label
    and leaf nodes may also carry a text value.  Attributes are kept on
    the node.  A node is identified by its preorder rank [id] (dense,
    root = 0) and spans the preorder interval [id .. subtree_end], so an
    ancestor test is two integer comparisons.  Its Dewey code is not
    stored: {!dewey} derives it on demand (rendering, the paper's
    figures, the relational shredding), and Dewey order agrees with id
    order.

    Values of type {!t} are immutable once built. *)

type node = private {
  id : int;  (** preorder rank within the document; the root has id 0 *)
  label : Label.t;  (** interned element name *)
  text : string;  (** concatenated text content, [""] when none *)
  attrs : (string * string) list;  (** attribute name/value pairs *)
  depth : int;  (** edges from the root: 0 for the root *)
  child_rank : int;
      (** position among the parent's children, from 0: the last
          component of the Dewey code; 0 for the root *)
  parent : int;  (** id of the parent node, [-1] for the root *)
  children : node array;
  subtree_end : int;
      (** id of the last node (in preorder) of the subtree rooted here;
          the subtree is exactly the id range [id .. subtree_end]. *)
}

type t
(** A document: a tree plus its label intern table. *)

(** {1 Building} *)

type builder
(** A tree under construction, before ids, depths and child ranks are
    assigned. *)

val elem :
  ?attrs:(string * string) list -> ?text:string -> string -> builder list ->
  builder
(** [elem name children] is an element node named [name].  [text] is its
    direct text content. *)

val build : builder -> t
(** [build b] assigns preorder ids, depths and child ranks and freezes
    the tree. *)

(** {1 Access} *)

val root : t -> node
val size : t -> int
(** Number of nodes. *)

val node : t -> int -> node
(** [node t id] is the node with preorder rank [id].
    @raise Invalid_argument if [id] is out of range. *)

val labels : t -> Label.table
val label_name : t -> node -> string

val dewey : t -> node -> Dewey.t
(** [dewey t n] is the Dewey code of [n], derived by walking up to the
    root and reading each ancestor's [child_rank]: O(depth), allocating only
    the code.  Off the query hot path, which works on [id] /
    [subtree_end] intervals. *)

val find_by_dewey : t -> Dewey.t -> node option
(** Navigate from the root by child ranks. *)

val parent_node : t -> node -> node option

val iter : (node -> unit) -> t -> unit
(** Preorder iteration over all nodes. *)

val fold : ('a -> node -> 'a) -> 'a -> t -> 'a
(** Preorder fold over all nodes. *)

val in_subtree : root:node -> node -> bool
(** [in_subtree ~root n] is [true] iff [n] is [root] or a descendant of
    [root] (constant time, via the preorder range). *)

val content_words : t -> node -> string list
(** The content [Cv] of a node: the normalised, stop-word-filtered word
    set implied by its label, text, and attributes (names and values),
    deduplicated and sorted. *)

val node_matches : t -> node -> string -> bool
(** [node_matches t n w] is [true] iff normalised keyword [w] occurs in
    the content of [n]. *)

(** {1 Editing (functional)} *)

val insert_subtree : t -> parent_id:int -> pos:int -> builder -> t
(** [insert_subtree t ~parent_id ~pos b] returns a new document equal to
    [t] with the tree [b] inserted as the [pos]-th child of the node whose
    id is [parent_id].  Used by the axiomatic-property checkers (data
    monotonicity / consistency).
    @raise Invalid_argument if [parent_id] or [pos] is out of range. *)

val delete_subtree : t -> id:int -> t
(** [delete_subtree t ~id] removes the subtree rooted at [id].
    @raise Invalid_argument if [id] is 0 (the root) or out of range. *)

val to_builder : t -> builder
(** Recover a builder from a document (for round-trips and edits). *)

(** {1 Pretty-printing} *)

val pp_node : t -> Format.formatter -> node -> unit
(** One-line ["dewey (label)"] rendering as used in the paper's prose. *)
