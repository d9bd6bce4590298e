(* Valid-contributor and contributor pruning over hand-built RTFs. *)

module Tree = Xks_xml.Tree
module Query = Xks_core.Query
module Rtf = Xks_core.Rtf
module Node_info = Xks_core.Node_info
module Prune = Xks_core.Prune
module Fragment = Xks_core.Fragment

let setup ?cid_mode xml ws =
  let doc = Xks_xml.Parser.parse_string xml in
  let q = Query.make (Xks_index.Inverted.build doc) ws in
  let lcas = Xks_lca.Indexed_stack.elca q.doc q.postings in
  let rtf = List.hd (Rtf.get_rtfs q lcas) in
  (doc, Node_info.construct ?cid_mode q rtf)

let test_rule1_unique_label_kept () =
  (* A unique-labelled child survives even with a covered keyword set
     (w3 keeps the root as the only full container). *)
  let doc, info =
    setup "<r><t>w1</t><abs>w1 w2</abs><z>w3</z></r>" [ "w1"; "w2"; "w3" ]
  in
  Helpers.check_fragment doc "all children kept" [ "0"; "0.0"; "0.1"; "0.2" ]
    (Prune.valid_contributor info);
  (* The label-blind contributor discards the covered child. *)
  Helpers.check_fragment doc "contributor discards t" [ "0"; "0.1"; "0.2" ]
    (Prune.contributor info)

let test_rule2a_covered_same_label_discarded () =
  let doc, info =
    setup "<r><p>w1</p><p>w1 w2</p><q>w3</q></r>" [ "w1"; "w2"; "w3" ]
  in
  Helpers.check_fragment doc "covered same-label child discarded"
    [ "0"; "0.1"; "0.2" ]
    (Prune.valid_contributor info)

let test_rule2b_duplicate_content_discarded () =
  (* Equal keyword sets and equal contents: keep one representative. *)
  let doc, info =
    setup "<r><p>w1 alpha</p><p>w1 alpha</p><p>w1 beta</p>w2</r>"
      [ "w1"; "w2" ]
  in
  Helpers.check_fragment doc "one duplicate dropped" [ "0"; "0.0"; "0.2" ]
    (Prune.valid_contributor info);
  (* Contributor keeps all three (equal keyword sets never cover
     strictly). *)
  Helpers.check_fragment doc "contributor keeps all"
    [ "0"; "0.0"; "0.1"; "0.2" ]
    (Prune.contributor info)

let test_rule2b_distinct_content_kept () =
  let doc, info =
    setup "<r><p>w1 alpha</p><p>w1 beta</p>w2</r>" [ "w1"; "w2" ]
  in
  Helpers.check_fragment doc "distinct contents all kept"
    [ "0"; "0.0"; "0.1" ]
    (Prune.valid_contributor info)

let test_discard_removes_subtree () =
  let doc, info =
    setup "<r><p><x>w1</x></p><p>w1 w2</p><q>w3</q></r>" [ "w1"; "w2"; "w3" ]
  in
  Helpers.check_fragment doc "whole covered subtree gone"
    [ "0"; "0.1"; "0.2" ]
    (Prune.valid_contributor info)

let test_cid_collision_vs_exact () =
  (* (min,max) cannot tell {a..z, m} from {a..z, q}: approx mode drops a
     sibling that exact mode keeps — the paper's acknowledged
     approximation (footnote 6) and our A1 ablation. *)
  let xml = "<r><p>w1 aa zz mm</p><p>w1 aa zz qq</p>w2</r>" in
  let doc, info_approx = setup xml [ "w1"; "w2" ] in
  Helpers.check_fragment doc "approx conflates" [ "0"; "0.0" ]
    (Prune.valid_contributor info_approx);
  let _, info_exact = setup ~cid_mode:Xks_index.Cid.Exact xml [ "w1"; "w2" ] in
  Helpers.check_fragment doc "exact keeps both" [ "0"; "0.0"; "0.1" ]
    (Prune.valid_contributor info_exact)

let test_keep_all_is_raw () =
  let doc, info =
    setup "<r><p>w1</p><p>w1 w2</p><q>w3</q></r>" [ "w1"; "w2"; "w3" ]
  in
  Helpers.check_fragment doc "keep_all = raw RTF" [ "0"; "0.0"; "0.1"; "0.2" ]
    (Prune.keep_all info)

(* Properties. *)

let gen_case = QCheck2.Gen.pair Helpers.gen_doc Helpers.gen_query

let print_case (doc, ws) =
  Printf.sprintf "query=%s doc=%s" (String.concat "," ws) (Helpers.print_doc doc)

let infos_of doc ws =
  let q = Query.make (Xks_index.Inverted.build doc) ws in
  let lcas = Xks_lca.Indexed_stack.elca q.doc q.postings in
  List.map (fun rtf -> (q, rtf, Node_info.construct q rtf)) (Rtf.get_rtfs q lcas)

let prop_pruned_is_subset_of_raw =
  QCheck2.Test.make ~name:"pruned fragments are subsets of the raw RTF"
    ~count:300 ~print:print_case gen_case (fun (doc, ws) ->
      List.for_all
        (fun (_, _, info) ->
          let raw = Prune.keep_all info in
          let sub frag =
            List.for_all (Fragment.mem raw) (Fragment.members_list frag)
          in
          sub (Prune.valid_contributor info) && sub (Prune.contributor info))
        (infos_of doc ws))

let prop_pruned_still_covers_query =
  QCheck2.Test.make
    ~name:"valid-contributor pruning keeps every keyword represented"
    ~count:300 ~print:print_case gen_case (fun (doc, ws) ->
      List.for_all
        (fun ((q : Query.t), _, info) ->
          let frag = Prune.valid_contributor info in
          let mask =
            List.fold_left
              (fun acc id -> Xks_index.Klist.union acc (Query.node_klist q id))
              Xks_index.Klist.empty
              (Fragment.members_list frag)
          in
          Xks_index.Klist.is_full ~k:(Query.k q) mask)
        (infos_of doc ws))

let prop_pruned_connected =
  QCheck2.Test.make ~name:"pruned fragments remain connected" ~count:300
    ~print:print_case gen_case (fun (doc, ws) ->
      List.for_all
        (fun (_, (rtf : Rtf.t), info) ->
          let check frag =
            List.for_all
              (fun id ->
                id = rtf.Rtf.lca
                || Fragment.mem frag (Tree.node doc id).Tree.parent)
              (Fragment.members_list frag)
          in
          check (Prune.valid_contributor info) && check (Prune.contributor info))
        (infos_of doc ws))

let prop_root_always_kept =
  QCheck2.Test.make ~name:"the RTF root survives pruning" ~count:300
    ~print:print_case gen_case (fun (doc, ws) ->
      List.for_all
        (fun (_, (rtf : Rtf.t), info) ->
          Fragment.mem (Prune.valid_contributor info) rtf.Rtf.lca)
        (infos_of doc ws))

(* The constructing step against the paper's formulation (lines 5-12 of
   Algorithm 1): every keyword node pushes its key number and content
   feature to itself and each ancestor up to the RTF root; the nodes
   reached are exactly the RTF members. *)
let prop_construct_matches_definition =
  QCheck2.Test.make ~name:"node-info tree matches its definition" ~count:300
    ~print:print_case gen_case (fun (doc, ws) ->
      let q = Query.make (Xks_index.Inverted.build doc) ws in
      let lcas = Xks_lca.Indexed_stack.elca q.doc q.postings in
      List.for_all
        (fun cid_mode ->
          List.for_all
            (fun (rtf : Rtf.t) ->
              let expected = Hashtbl.create 16 in
              Array.iter
                (fun kn ->
                  let klist = Query.node_klist q kn in
                  let cid =
                    Xks_index.Cid.of_words cid_mode
                      (Tree.content_words doc (Tree.node doc kn))
                  in
                  let rec up id =
                    let k0, c0 =
                      Option.value
                        ~default:(Xks_index.Klist.empty, Xks_index.Cid.empty)
                        (Hashtbl.find_opt expected id)
                    in
                    Hashtbl.replace expected id
                      (Xks_index.Klist.union k0 klist, Xks_index.Cid.merge c0 cid);
                    if id <> rtf.lca then up (Tree.node doc id).Tree.parent
                  in
                  up kn)
                rtf.knodes;
              Hashtbl.replace expected rtf.lca
                (Option.value
                   ~default:(Xks_index.Klist.empty, Xks_index.Cid.empty)
                   (Hashtbl.find_opt expected rtf.lca));
              let t = Node_info.construct ~cid_mode q rtf in
              let member_ok id (klist, cid) =
                let children =
                  Hashtbl.fold
                    (fun c _ acc ->
                      if c <> rtf.lca && (Tree.node doc c).Tree.parent = id
                      then c :: acc
                      else acc)
                    expected []
                  |> List.sort Int.compare
                in
                match Node_info.info_of t id with
                | None -> false
                | Some info ->
                    info.id = id && info.klist = klist
                    && Xks_index.Cid.equal info.cid cid
                    && List.map (fun (c : Node_info.info) -> c.id)
                         info.rtf_children
                       = children
              in
              (Node_info.root t).id = rtf.lca
              && Hashtbl.fold (fun id e ok -> ok && member_ok id e) expected true
              && List.for_all
                   (fun id ->
                     Hashtbl.mem expected id || Node_info.info_of t id = None)
                   (List.init (Tree.size doc) Fun.id))
            (Rtf.get_rtfs q lcas))
        [ Xks_index.Cid.Approx; Xks_index.Cid.Exact ])

let tests =
  [
    Alcotest.test_case "rule 1: unique label kept" `Quick test_rule1_unique_label_kept;
    Alcotest.test_case "rule 2a: covered same-label discarded" `Quick
      test_rule2a_covered_same_label_discarded;
    Alcotest.test_case "rule 2b: duplicate content discarded" `Quick
      test_rule2b_duplicate_content_discarded;
    Alcotest.test_case "rule 2b: distinct content kept" `Quick
      test_rule2b_distinct_content_kept;
    Alcotest.test_case "discard removes the subtree" `Quick test_discard_removes_subtree;
    Alcotest.test_case "cid approximation vs exact" `Quick test_cid_collision_vs_exact;
    Alcotest.test_case "keep_all" `Quick test_keep_all_is_raw;
    Helpers.qtest prop_pruned_is_subset_of_raw;
    Helpers.qtest prop_pruned_still_covers_query;
    Helpers.qtest prop_pruned_connected;
    Helpers.qtest prop_root_always_kept;
    Helpers.qtest prop_construct_matches_definition;
  ]
