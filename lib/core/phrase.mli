(** Phrase-aware keyword queries.

    Query terms in double quotes are phrases matched positionally
    (["\"xml keyword search\""] matches only nodes where the three words
    are consecutive); bare terms behave as usual.  Phrase posting lists
    come from {!Xks_index.Positional} and feed the unchanged ValidRTF /
    MaxMatch pipeline through {!Engine.search_query}. *)

type term =
  | Word of string
  | Phrase of string list  (** two or more normalised words *)

val parse_term : string -> term
(** Double quotes delimit phrases: ["\"xml search\""] or [xml].
    Single-word phrases collapse to {!Word}.
    @raise Invalid_argument when nothing remains after normalisation. *)

val term_to_string : term -> string

val query :
  Xks_index.Positional.t -> string list -> Query.t
(** Parse each string as a term and build the prepared query.
    @raise Invalid_argument as {!parse_term} / {!Query.of_postings}. *)
