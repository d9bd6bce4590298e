(** The program model shared by the four xks static analyzers: one
    loader, one annotation lexer, one set of name helpers and one
    fixpoint.  Each analyzer keeps only its own rule family and hands
    {!run} a verb table and an analysis over the loaded files. *)

module StringSet : Set.S with type elt = string

(** {1 Locations and names} *)

val line_of : Location.t -> int
(** 1-based start line of a compiler location. *)

val cols_of : Location.t -> int * int
(** 0-based [(start, end)] column span of a compiler location. *)

val last_of : Longident.t -> string
(** Last component: [Xks_util.Int_vec.t] -> ["t"]. *)

val qualifier : Longident.t -> string option
(** Module component directly qualifying a name: [Xks_util.Int_vec.t]
    -> [Some "Int_vec"], [t] -> [None]. *)

val peel : Parsetree.expression -> Parsetree.expression
(** Strip type constraints, coercions and local opens. *)

val path_name : Parsetree.expression -> string
(** Last name on an access path ([s.mutex] -> ["mutex"]), ["?"] for
    anything else; locks and resources are named this way. *)

val idents_of : Parsetree.expression -> StringSet.t
(** Bare identifiers mentioned anywhere in an expression. *)

(** {1 Annotations}

    [(* <tool>: <verb> <argument> *)] on one line.  A verb's shape says
    which arguments it takes; the table entry's builder receives the
    argument's first word ([""] if none) and may refuse it.  An unknown
    verb, a shape mismatch or a refused word exits 2 with
    [<tool>: <path>: line N: unrecognized annotation "<body>"]. *)

type shape =
  | Bare  (** no argument: [(* xkscost: hot *)] *)
  | Opt_text  (** optional free text: [(* xksrace: domain_safe why *)] *)
  | Word  (** a word, then an optional reason *)
  | Word_reason  (** a word, then a required reason *)

type 'a verb = string * shape * (string -> 'a option)
(** Verb, shape, and the annotation to build from the first word. *)

type 'a anns
(** A file's annotations by line. *)

val anns_at : 'a anns -> int -> 'a list
(** Annotations on [line] or on the line directly above. *)

val iter_items :
  (Parsetree.structure_item_desc -> unit) -> Parsetree.structure -> unit
(** Apply to every structure item in order, descending into
    [module M = struct ... end] instead of passing it. *)

(** {1 The loader} *)

type 'a file = {
  path : string;
  modname : string;  (** ["lib/core/rtf.ml"] -> ["Rtf"] *)
  anns : 'a anns;
  aliases : (string, string) Hashtbl.t;
      (** [module X = A.B] at any depth: ["X"] -> ["B"] *)
  structure : Parsetree.structure;
}

val resolve : 'a file -> string -> string
(** Module a qualifier names in this file, through its aliases. *)

(** {1 Fixpoint and driver} *)

val fixpoint : ('a -> bool) -> 'a list -> unit
(** Apply the step to every item, in order, until a whole round reports
    no change. *)

val run :
  tool:string ->
  ?known_rules:string list ->
  verbs:'a verb list ->
  (Report.options -> 'a file list -> Report.finding list) ->
  unit
(** The analyzer driver: parse [Sys.argv] ({!Report.parse_argv_opts}),
    walk the roots for [.ml] files (sorted, dot-entries skipped), load
    each once (a syntax error exits 2), analyze, and {!Report.report}. *)
