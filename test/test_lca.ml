(* LCA substrate: unit tests on hand-built trees plus property tests
   cross-validating the four implementations (brute-force definition,
   bottom-up tree scan, Indexed Lookup Eager, Indexed Stack) on random
   documents. *)

module Tree = Xks_xml.Tree
module Tree_scan = Xks_lca.Tree_scan
module Naive = Xks_lca.Naive
module Slca = Xks_lca.Slca
module Indexed_stack = Xks_lca.Indexed_stack
module Probe = Xks_lca.Probe

let doc_and_postings xml query =
  let doc = Xks_xml.Parser.parse_string xml in
  (doc, Helpers.postings_for doc query)

(* XRank-style example: nested full containers exercise the exclusion. *)
let nested_xml =
  "<r><m><c>w1 w2</c><t>w2</t></m><d>w1</d></r>"

let test_nested_elca () =
  (* Full containers are r, m and c, but only c is an ELCA: m's w1 is
     inside c, and r's only w2 witnesses (t, c) are inside m. *)
  let doc, ps = doc_and_postings nested_xml [ "w1"; "w2" ] in
  Helpers.check_ids doc "tree scan" [ "0.0.0" ] (Tree_scan.elca doc ps);
  Helpers.check_ids doc "naive" [ "0.0.0" ] (Naive.elca doc ps);
  Helpers.check_ids doc "indexed stack" [ "0.0.0" ] (Indexed_stack.elca doc ps);
  Helpers.check_ids doc "full containers" [ "0"; "0.0"; "0.0.0" ]
    (Tree_scan.full_containers doc ps);
  Helpers.check_ids doc "slca" [ "0.0.0" ] (Slca.indexed_lookup_eager doc ps);
  Helpers.check_ids doc "scan eager" [ "0.0.0" ] (Xks_lca.Scan_eager.slca doc ps);
  Helpers.check_ids doc "stack slca" [ "0.0.0" ] (Xks_lca.Stack_algos.slca doc ps);
  Helpers.check_ids doc "stack elca" [ "0.0.0" ] (Xks_lca.Stack_algos.elca doc ps)

let test_root_elca () =
  (* Root regains ELCA status when it has its own free witnesses. *)
  let doc, ps =
    doc_and_postings "<r><m><c>w1 w2</c><t>w2</t></m><d>w1</d><e>w2</e></r>"
      [ "w1"; "w2" ]
  in
  Helpers.check_ids doc "elca" [ "0"; "0.0.0" ] (Tree_scan.elca doc ps);
  Helpers.check_ids doc "indexed stack" [ "0"; "0.0.0" ] (Indexed_stack.elca doc ps)

let test_single_keyword () =
  (* For k = 1 every occurrence is an ELCA; the SLCAs are the minimal
     occurrences. *)
  let doc, ps =
    doc_and_postings "<r>w1<a>w1<b>w1</b></a><c>x</c></r>" [ "w1" ]
  in
  Helpers.check_ids doc "elcas" [ "0"; "0.0"; "0.0.0" ] (Indexed_stack.elca doc ps);
  Helpers.check_ids doc "slca" [ "0.0.0" ] (Slca.indexed_lookup_eager doc ps);
  Helpers.check_ids doc "scan eager" [ "0.0.0" ] (Xks_lca.Scan_eager.slca doc ps);
  Helpers.check_ids doc "stack slca" [ "0.0.0" ] (Xks_lca.Stack_algos.slca doc ps);
  Helpers.check_ids doc "stack elca" [ "0"; "0.0"; "0.0.0" ]
    (Xks_lca.Stack_algos.elca doc ps)

let test_no_match () =
  let doc, ps = doc_and_postings "<r><a>w1</a></r>" [ "w1"; "w9" ] in
  Alcotest.(check (list int)) "no elca" [] (Indexed_stack.elca doc ps);
  Alcotest.(check (list int)) "no slca" [] (Slca.indexed_lookup_eager doc ps);
  Alcotest.(check (list int)) "no tree-scan elca" [] (Tree_scan.elca doc ps)

let test_keyword_on_inner_node () =
  (* Labels are content too: an inner node can be a keyword node. *)
  let doc, ps = doc_and_postings "<w1><a>w2</a></w1>" [ "w1"; "w2" ] in
  Helpers.check_ids doc "root is the elca" [ "0" ] (Indexed_stack.elca doc ps)

let test_probe_fc () =
  let doc, ps = doc_and_postings nested_xml [ "w1"; "w2" ] in
  let fc_of dewey =
    match Probe.fc doc ps (Helpers.id_at doc dewey) with
    | -1 -> "none"
    | f -> Helpers.dewey_str doc f
  in
  Alcotest.(check string) "fc of c is c" "0.0.0" (fc_of "0.0.0");
  Alcotest.(check string) "fc of t is m" "0.0" (fc_of "0.0.1");
  Alcotest.(check string) "fc of d is root" "0" (fc_of "0.1")

let test_probe_ancestor_at () =
  let doc, _ = doc_and_postings nested_xml [ "w1" ] in
  let n = Tree.node doc (Helpers.id_at doc "0.0.1") in
  Alcotest.(check string) "depth 1" "0.0"
    (Helpers.dewey_str doc (Probe.ancestor_at doc n 1).Tree.id);
  Alcotest.(check string) "depth 0" "0"
    (Helpers.dewey_str doc (Probe.ancestor_at doc n 0).Tree.id)

let test_smallest_list () =
  Alcotest.(check int) "picks the shortest" 1
    (Probe.smallest_list_index [| [| 1; 2; 3 |]; [| 4 |]; [| 5; 6 |] |])

(* --- Cross-validation properties. --- *)

let gen_case = QCheck2.Gen.pair Helpers.gen_doc Helpers.gen_query

let print_case (doc, q) =
  Printf.sprintf "query=%s doc=%s" (String.concat "," q) (Helpers.print_doc doc)

let prop pairs name f =
  QCheck2.Test.make ~name ~count:pairs ~print:print_case gen_case f

let prop_elca_implementations_agree =
  prop 400 "indexed stack = tree scan = brute force (ELCA)" (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      let a = Indexed_stack.elca doc ps in
      let b = Tree_scan.elca doc ps in
      let c = Naive.elca doc ps in
      a = b && b = c)

let prop_slca_implementations_agree =
  prop 400 "indexed lookup eager = tree scan = brute force (SLCA)"
    (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      let a = Slca.indexed_lookup_eager doc ps in
      let b = Tree_scan.slca doc ps in
      let c = Naive.slca doc ps in
      a = b && b = c)

let prop_slca_variants_agree =
  prop 400 "scan eager = stack = multiway = indexed lookup eager (SLCA)"
    (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      let a = Slca.indexed_lookup_eager doc ps in
      let b = Xks_lca.Scan_eager.slca doc ps in
      let c = Xks_lca.Stack_algos.slca doc ps in
      let d = Xks_lca.Multiway.slca doc ps in
      a = b && b = c && c = d)

let prop_elca_stack_agrees =
  prop 400 "stack ELCA = indexed stack ELCA" (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      Xks_lca.Stack_algos.elca doc ps = Indexed_stack.elca doc ps)

let prop_full_containers_agree =
  prop 300 "tree scan = brute force (full containers)" (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      Tree_scan.full_containers doc ps = Naive.full_containers doc ps)

let prop_slca_subset_elca =
  prop 300 "SLCA is a subset of ELCA" (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      let elcas = Indexed_stack.elca doc ps in
      List.for_all (fun s -> List.mem s elcas) (Slca.indexed_lookup_eager doc ps))

let prop_elca_subset_full_containers =
  prop 300 "ELCAs are full containers" (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      let fcs = Tree_scan.full_containers doc ps in
      List.for_all (fun e -> List.mem e fcs) (Indexed_stack.elca doc ps))

let prop_elca_subset_lca_closure =
  prop 150 "ELCAs are classic LCAs of witness tuples" (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      (* Keep the witness enumeration tractable. *)
      if Array.exists (fun s -> Array.length s > 6) ps then true
      else
        let lcas = Naive.lca_of_witnesses doc ps in
        List.for_all (fun e -> List.mem e lcas) (Indexed_stack.elca doc ps))

let prop_fc_is_deepest_full_container =
  prop 300 "fc is the deepest full container of a node" (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      let fcs = Naive.full_containers doc ps in
      Tree.fold
        (fun acc n ->
          acc
          &&
          let expected =
            (* deepest full-container ancestor-or-self by brute force *)
            List.filter
              (fun f ->
                let fn = Tree.node doc f in
                Xks_xml.Dewey.is_ancestor_or_self (Tree.dewey doc fn)
                  (Tree.dewey doc n))
              fcs
            |> List.fold_left (fun _ f -> Some f) None
          in
          match (Probe.fc doc ps n.Tree.id, expected) with
          | -1, None -> true
          | f, Some e -> f = e
          | _, None -> false)
        true doc)

(* The interval [fc] against the definition it replaced: the deepest
   full container of [x] is its ancestor at depth
   min_i max_{m in S_i} |lcp(dewey x, dewey m)| — the longest common
   Dewey prefix with the closest occurrence of each keyword — and there
   is none when some list is empty. *)
let fc_by_dewey doc ps (x : Tree.node) =
  let dx = Tree.dewey doc x in
  if Array.exists (fun p -> Array.length p = 0) ps then -1
  else
    let closest p =
      Array.fold_left
        (fun m id ->
          max m (Xks_xml.Dewey.lca_depth dx (Tree.dewey doc (Tree.node doc id))))
        0 p
    in
    let depth =
      Array.fold_left (fun d p -> min d (closest p)) (Xks_xml.Dewey.depth dx) ps
    in
    match Tree.find_by_dewey doc (Xks_xml.Dewey.prefix dx depth) with
    | Some n -> n.Tree.id
    | None -> -1

(* Random queries over the small word alphabet, sometimes with a word
   no document holds, so empty posting lists come up too. *)
let gen_fc_case =
  QCheck2.Gen.(
    triple
      (oneof [ Helpers.gen_doc; Helpers.gen_deep_doc ])
      Helpers.gen_query bool)

let prop_fc_matches_dewey_definition =
  QCheck2.Test.make ~count:400
    ~name:"interval fc = Dewey longest-common-prefix definition"
    ~print:(fun (doc, q, absent) ->
      print_case (doc, if absent then q @ [ "absent" ] else q))
    gen_fc_case
    (fun (doc, q, absent) ->
      let ps = Helpers.postings_for doc (if absent then q @ [ "absent" ] else q) in
      Tree.fold
        (fun acc n -> acc && Probe.fc doc ps n.Tree.id = fc_by_dewey doc ps n)
        true doc)

(* The getLCA scans allocate nothing per probe: only their output (one
   list cell per ELCA, the heap payload of an admitted top-k fragment,
   a boxed score per callback).  The bounds are minor-heap words per
   occurrence of the rarest keyword, the algorithms' outer loop; the
   Dewey-array scans they replaced took over 300. *)
let test_scan_allocation () =
  let doc =
    Xks_datagen.Dblp_gen.(
      generate ~config:{ default_config with entries = 2000; seed = 3 } ())
  in
  let idx = Xks_index.Inverted.build doc in
  let q = Xks_core.Query.make ~order:`Rarest idx [ "author"; "year" ] in
  let driver =
    Array.length q.postings.(Probe.smallest_list_index q.postings)
  in
  Alcotest.(check bool) "the query has a long driver list" true (driver >= 1000);
  let per_driver f =
    ignore (f ());
    let before = Gc.minor_words () in
    ignore (f ());
    (Gc.minor_words () -. before) /. float_of_int driver
  in
  let elca =
    per_driver (fun () -> List.length (Indexed_stack.elca q.doc q.postings))
  in
  let w = Xks_core.Rank.weights q in
  let topk =
    per_driver (fun () ->
        List.length
          (Xks_lca.Topk.run ~k:10
             ~score:(fun ~lca:_ ~tf -> Xks_core.Rank.score_tf w tf)
             ~bound:(fun ~avail -> Xks_core.Rank.bound w ~avail)
             q.doc q.postings)
            .top)
  in
  if elca > 8. then
    Alcotest.failf "Indexed_stack.elca: %.1f minor words per driver occurrence" elca;
  if topk > 24. then
    Alcotest.failf "Topk.run: %.1f minor words per driver occurrence" topk

let tests =
  [
    Alcotest.test_case "nested full containers" `Quick test_nested_elca;
    Alcotest.test_case "root with free witnesses" `Quick test_root_elca;
    Alcotest.test_case "single keyword" `Quick test_single_keyword;
    Alcotest.test_case "keyword with no occurrence" `Quick test_no_match;
    Alcotest.test_case "inner keyword node" `Quick test_keyword_on_inner_node;
    Alcotest.test_case "fc probe" `Quick test_probe_fc;
    Alcotest.test_case "ancestor_at" `Quick test_probe_ancestor_at;
    Alcotest.test_case "smallest list index" `Quick test_smallest_list;
    Helpers.qtest prop_elca_implementations_agree;
    Helpers.qtest prop_slca_implementations_agree;
    Helpers.qtest prop_slca_variants_agree;
    Helpers.qtest prop_elca_stack_agrees;
    Helpers.qtest prop_full_containers_agree;
    Helpers.qtest prop_slca_subset_elca;
    Helpers.qtest prop_elca_subset_full_containers;
    Helpers.qtest prop_elca_subset_lca_closure;
    Helpers.qtest prop_fc_is_deepest_full_container;
    Helpers.qtest prop_fc_matches_dewey_definition;
    Alcotest.test_case "scan allocation per driver occurrence" `Quick
      test_scan_allocation;
  ]
