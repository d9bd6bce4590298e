module Tokenizer = Xks_xml.Tokenizer

type term = Word of string | Phrase of string list

let parse_term s =
  let stripped =
    let n = String.length s in
    if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then
      Some (String.sub s 1 (n - 2))
    else None
  in
  match stripped with
  | Some body -> (
      match Tokenizer.words ~keep_stopwords:true body with
      | [] -> invalid_arg ("Phrase.parse_term: empty phrase " ^ s)
      | [ w ] -> Word w
      | ws -> Phrase ws)
  | None -> (
      match Tokenizer.normalize s with
      | "" -> invalid_arg "Phrase.parse_term: empty term"
      | w -> Word w)

let term_to_string = function
  | Word w -> w
  | Phrase ws -> "\"" ^ String.concat " " ws ^ "\""

let posting pidx = function
  | Word w -> Xks_index.Positional.posting pidx w
  | Phrase ws -> Xks_index.Positional.phrase_posting pidx ws

let query pidx terms =
  let parsed = List.map parse_term terms in
  let keywords = List.map term_to_string parsed in
  let postings = Array.of_list (List.map (posting pidx) parsed) in
  Query.of_postings (Xks_index.Positional.doc pidx) ~keywords postings
