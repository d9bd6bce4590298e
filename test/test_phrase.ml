(* Positional index and phrase queries. *)

module Positional = Xks_index.Positional
module Phrase = Xks_core.Phrase
module Engine = Xks_core.Engine

let doc () =
  Xks_xml.Parser.parse_string
    "<lib><b1><t>xml keyword search</t></b1><b2><t>keyword search in xml \
     data</t></b2><b3><t>search keyword xml</t></b3></lib>"

let test_positions () =
  let d = doc () in
  let p = Positional.build d in
  (* Node 0.0.0 content stream: "t" (label, offset 0) then the text. *)
  match Positional.positions p "keyword" with
  | (id, offsets) :: _ ->
      Alcotest.(check int) "first node" (Helpers.id_at d "0.0.0") id;
      Alcotest.(check (list int)) "offset after the label" [ 2 ]
        (Array.to_list offsets)
  | [] -> Alcotest.fail "expected positions"

let test_posting_agrees_with_inverted () =
  let d = doc () in
  let p = Positional.build d in
  let idx = Xks_index.Inverted.build d in
  List.iter
    (fun w ->
      Alcotest.(check (list int)) w
        (Array.to_list (Xks_index.Inverted.posting idx w))
        (Array.to_list (Positional.posting p w)))
    [ "xml"; "keyword"; "search"; "data"; "zzz" ]

let test_phrase_matching () =
  let d = doc () in
  let p = Positional.build d in
  Helpers.check_ids d "exact phrase order" [ "0.0.0" ]
    (Array.to_list (Positional.phrase_posting p [ "xml"; "keyword"; "search" ]));
  Helpers.check_ids d "two-word phrase"
    [ "0.0.0"; "0.1.0" ]
    (Array.to_list (Positional.phrase_posting p [ "keyword"; "search" ]));
  Alcotest.(check (list int)) "absent phrase" []
    (Array.to_list (Positional.phrase_posting p [ "data"; "keyword" ]))

let test_stopword_gap_blocks_phrase () =
  (* "search in xml": the dropped stop word occupies an offset, so
     "search xml" is not consecutive there. *)
  let d = doc () in
  let p = Positional.build d in
  Alcotest.(check (list int)) "gap not bridged" []
    (Array.to_list (Positional.phrase_posting p [ "search"; "xml" ]))

let test_parse_term () =
  (match Phrase.parse_term "\"XML Keyword\"" with
  | Phrase.Phrase [ "xml"; "keyword" ] -> ()
  | Phrase.Phrase _ | Phrase.Word _ -> Alcotest.fail "expected a phrase");
  (match Phrase.parse_term "\"xml\"" with
  | Phrase.Word "xml" -> ()
  | Phrase.Word _ | Phrase.Phrase _ ->
      Alcotest.fail "single-word phrase collapses");
  (match Phrase.parse_term "plain" with
  | Phrase.Word "plain" -> ()
  | Phrase.Word _ | Phrase.Phrase _ -> Alcotest.fail "bare word");
  Alcotest.(check string) "to_string" "\"xml keyword\""
    (Phrase.term_to_string (Phrase.Phrase [ "xml"; "keyword" ]))

let test_phrase_search_end_to_end () =
  let d = doc () in
  let engine = Engine.of_doc d in
  let p = Positional.build d in
  let hits =
    (Engine.search_query (Phrase.query p [ "\"xml keyword\""; "search" ]))
      .Engine.hits
  in
  Alcotest.(check (list string)) "only the consecutive occurrence"
    [ "0.0.0" ]
    (List.map
       (fun (h : Engine.hit) ->
         Helpers.dewey_str d h.Engine.fragment.Xks_core.Fragment.root)
       hits);
  (* The same words as bare keywords match all three books. *)
  let bare = Engine.search engine [ "xml"; "keyword"; "search" ] in
  Alcotest.(check int) "bare query is broader" 3 (List.length bare)

let prop_phrase_subset_of_intersection =
  QCheck2.Test.make
    ~name:"phrase postings are contained in every word's posting"
    ~count:200 ~print:Helpers.print_doc Helpers.gen_doc (fun doc ->
      let p = Positional.build doc in
      List.for_all
        (fun (a, b) ->
          let phrase = Positional.phrase_posting p [ a; b ] in
          Array.for_all
            (fun id ->
              Xks_util.Bsearch.mem (Positional.posting p a) id
              && Xks_util.Bsearch.mem (Positional.posting p b) id)
            phrase)
        [ ("w0", "w1"); ("w1", "w2"); ("w2", "w2") ])

let prop_positional_posting_equals_inverted =
  QCheck2.Test.make ~name:"positional ids = inverted ids on random docs"
    ~count:200 ~print:Helpers.print_doc Helpers.gen_doc (fun doc ->
      let p = Positional.build doc in
      let idx = Xks_index.Inverted.build doc in
      Array.for_all
        (fun w -> Positional.posting p w = Xks_index.Inverted.posting idx w)
        Helpers.words)

let tests =
  [
    Alcotest.test_case "positions" `Quick test_positions;
    Alcotest.test_case "posting = inverted posting" `Quick
      test_posting_agrees_with_inverted;
    Alcotest.test_case "phrase matching" `Quick test_phrase_matching;
    Alcotest.test_case "stop word gaps block phrases" `Quick
      test_stopword_gap_blocks_phrase;
    Alcotest.test_case "term parsing" `Quick test_parse_term;
    Alcotest.test_case "phrase search end to end" `Quick
      test_phrase_search_end_to_end;
    Helpers.qtest prop_phrase_subset_of_intersection;
    Helpers.qtest prop_positional_posting_equals_inverted;
  ]
