module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey
module Bsearch = Xks_util.Bsearch

type result = { root : int; fragment : Fragment.t; edges : int }

(* The shallowest witness of one keyword inside [a]'s subtree (minimal
   path length from [a]). *)
let nearest_witness doc posting (a : Tree.node) =
  let lo = Bsearch.lower_bound posting a.id in
  let hi = Bsearch.upper_bound posting a.subtree_end in
  let best = ref None in
  for i = lo to hi - 1 do
    let w = Tree.node doc posting.(i) in
    let d = w.depth in
    match !best with
    | Some (_, bd) when bd <= d -> ()
    | _ -> best := Some (w, d)
  done;
  Option.map fst !best

let search ?(max_edges = 10) (q : Query.t) =
  let doc = q.doc in
  if not (Query.has_results q) then []
  else begin
    let candidates = Xks_lca.Tree_scan.full_containers doc q.postings in
    List.filter_map
      (fun a_id ->
        let a = Tree.node doc a_id in
        let witnesses =
          Array.to_list q.postings
          |> List.map (fun posting -> nearest_witness doc posting a)
        in
        if List.exists Option.is_none witnesses then None
        else begin
          let witnesses = List.filter_map Fun.id witnesses in
          let lca =
            Dewey.lca_list (List.map (Tree.dewey doc) witnesses)
          in
          (* Only "tightest" groups: the chosen witnesses' LCA is the
             candidate itself, so each connecting tree is reported at
             its own root. *)
          if not (Dewey.equal lca (Tree.dewey doc a)) then None
          else begin
            let members = ref [] in
            List.iter
              (fun (w : Tree.node) ->
                let rec up id =
                  if id <> a_id then begin
                    members := id :: !members;
                    up (Tree.node doc id).parent
                  end
                in
                up w.id)
              witnesses;
            let fragment = Fragment.make ~root:a_id ~members:!members in
            let edges = Fragment.size fragment - 1 in
            if edges <= max_edges then Some { root = a_id; fragment; edges }
            else None
          end
        end)
      candidates
  end
