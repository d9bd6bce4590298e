module Tree = Xks_xml.Tree
module Path = Xks_xml.Path

let restrict_postings doc ~scope postings =
  let ranges =
    List.map (fun id -> (id, (Tree.node doc id).subtree_end)) scope
  in
  let in_scope id =
    (* Scope lists are small (path results); a linear check keeps this
       simple.  Ranges are disjoint or nested, either way membership is
       a simple interval test. *)
    List.exists (fun (lo, hi) -> id >= lo && id <= hi) ranges
  in
  Array.map
    (fun posting ->
      Array.to_list posting |> List.filter in_scope |> Array.of_list)
    postings

let query idx ~path ws =
  let doc = Xks_index.Inverted.doc idx in
  let scope = Path.eval_ids doc (Path.parse path) in
  let base = Query.make idx ws in
  let postings = restrict_postings doc ~scope base.Query.postings in
  Query.of_postings ~approx_cids:base.Query.approx_cids doc
    ~keywords:(Array.to_list base.Query.keywords)
    postings
