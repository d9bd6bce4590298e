(* The XPath subset and path-scoped keyword search. *)

module Path = Xks_xml.Path
module Tree = Xks_xml.Tree
module Scoped = Xks_core.Scoped
module Engine = Xks_core.Engine

let doc () =
  Xks_xml.Parser.parse_string
    "<site><regions><europe><item id='i1'><name>clock</name><price>10</price></item><item \
     id='i2'><name>globe</name></item></europe><asia><item \
     id='i3'><name>clock</name></item></asia></regions><people><person \
     id='p1'><name>ada</name></person></people></site>"

let eval doc s = Helpers.deweys_of doc (Path.eval_ids doc (Path.parse s))

let test_child_steps () =
  let d = doc () in
  Alcotest.(check (list string)) "root" [ "0" ] (eval d "/site");
  Alcotest.(check (list string)) "nested" [ "0.0.0" ] (eval d "/site/regions/europe");
  Alcotest.(check (list string)) "wrong root" [] (eval d "/nope");
  Alcotest.(check (list string)) "wildcard"
    [ "0.0.0"; "0.0.1" ]
    (eval d "/site/regions/*")

let test_descendant_steps () =
  let d = doc () in
  Alcotest.(check (list string)) "all items"
    [ "0.0.0.0"; "0.0.0.1"; "0.0.1.0" ]
    (eval d "//item");
  Alcotest.(check (list string)) "names everywhere"
    [ "0.0.0.0.0"; "0.0.0.1.0"; "0.0.1.0.0"; "0.1.0.0" ]
    (eval d "//name");
  Alcotest.(check (list string)) "scoped descendants"
    [ "0.0.0.0.0"; "0.0.0.1.0"; "0.0.1.0.0" ]
    (eval d "/site/regions//name")

let test_predicates () =
  let d = doc () in
  Alcotest.(check (list string)) "attr equality" [ "0.0.0.1" ] (eval d "//item[@id='i2']");
  Alcotest.(check (list string)) "attr presence"
    [ "0.0.0.0"; "0.0.0.1"; "0.0.1.0" ]
    (eval d "//item[@id]");
  Alcotest.(check (list string)) "child text"
    [ "0.0.0.0"; "0.0.1.0" ]
    (eval d "//item[name='clock']");
  Alcotest.(check (list string)) "self text"
    [ "0.0.0.0.0"; "0.0.1.0.0" ]
    (eval d "//item/name[.='clock']");
  Alcotest.(check (list string)) "position is per parent"
    [ "0.0.0.1" ]
    (eval d "/site/regions/europe/item[2]");
  Alcotest.(check (list string)) "position under //"
    [ "0.0.0.0"; "0.0.1.0" ]
    (eval d "//item[1]");
  Alcotest.(check (list string)) "stacked predicates" [ "0.0.0.0" ]
    (eval d "//item[@id='i1'][name='clock']")

let test_parse_errors () =
  List.iter
    (fun s ->
      match Path.parse s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted malformed path %S" s)
    [ ""; "a/b"; "/"; "//"; "/a["; "/a[]"; "/a[@]"; "/a[@x="; "/a[0]"; "/a[x=']" ]

let test_to_string_roundtrip () =
  List.iter
    (fun s ->
      let p = Path.parse s in
      Alcotest.(check string) s s (Path.to_string p);
      Alcotest.(check string) "reparse is stable" s
        (Path.to_string (Path.parse (Path.to_string p))))
    [
      "/site/regions"; "//item[@id='i2']"; "//item[name='clock'][2]";
      "/site//*[@id]"; "//name[.='ada']";
    ]

(* --- scoped keyword search --- *)

let test_scoped_search () =
  let engine = Engine.of_doc (doc ()) in
  (* Unscoped: "clock" hits items in both regions. *)
  let all = Engine.search engine [ "clock" ] in
  Alcotest.(check int) "two clocks" 2 (List.length all);
  (* Scoped to asia: only the asian item remains. *)
  let scoped =
    (Engine.search_query
       (Scoped.query (Engine.index engine) ~path:"/site/regions/asia"
          [ "clock" ]))
      .Engine.hits
  in
  let d = Engine.doc engine in
  Alcotest.(check (list string)) "asia only" [ "0.0.1.0.0" ]
    (List.map
       (fun (h : Engine.hit) ->
         Helpers.dewey_str d h.Engine.fragment.Xks_core.Fragment.root)
       scoped)

let test_scoped_pipeline_semantics () =
  (* Scoping changes the LCA computation consistently: restricting to
     the europe subtree turns the cross-region LCA into a per-item one. *)
  let engine = Engine.of_doc (doc ()) in
  let q = Scoped.query (Engine.index engine) ~path:"//europe" [ "clock"; "globe" ] in
  let lcas = Xks_lca.Indexed_stack.elca q.Xks_core.Query.doc q.Xks_core.Query.postings in
  Helpers.check_ids (Engine.doc engine) "lca inside the scope" [ "0.0.0" ] lcas

let test_scope_without_matches () =
  let engine = Engine.of_doc (doc ()) in
  Alcotest.(check int) "no people clocks" 0
    (List.length
       (Engine.search_query
          (Scoped.query (Engine.index engine) ~path:"//people" [ "clock" ]))
         .Engine.hits)

let prop_scoped_subset =
  QCheck2.Test.make ~name:"scoped results are a subset of unscoped results"
    ~count:200
    ~print:(fun (doc, ws) ->
      Printf.sprintf "query=%s doc=%s" (String.concat "," ws)
        (Helpers.print_doc doc))
    QCheck2.Gen.(pair Helpers.gen_doc Helpers.gen_query)
    (fun (doc, ws) ->
      let idx = Xks_index.Inverted.build doc in
      let base = Xks_core.Query.make idx ws in
      let scoped_postings =
        Scoped.restrict_postings doc ~scope:[ 0 ] base.Xks_core.Query.postings
      in
      (* Scoping to the whole document changes nothing. *)
      scoped_postings = base.Xks_core.Query.postings)

let tests =
  [
    Alcotest.test_case "child steps" `Quick test_child_steps;
    Alcotest.test_case "descendant steps" `Quick test_descendant_steps;
    Alcotest.test_case "predicates" `Quick test_predicates;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "to_string round-trip" `Quick test_to_string_roundtrip;
    Alcotest.test_case "scoped search" `Quick test_scoped_search;
    Alcotest.test_case "scoped pipeline semantics" `Quick test_scoped_pipeline_semantics;
    Alcotest.test_case "scope without matches" `Quick test_scope_without_matches;
    Helpers.qtest prop_scoped_subset;
  ]
