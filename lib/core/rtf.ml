module Tree = Xks_xml.Tree

type t = { lca : int; knodes : int array }

(* Union of all posting lists: the shared k-way merge over the whole
   document, into a per-domain scratch buffer, so no list cell is
   allocated per occurrence. *)
let keyword_node_ids ?budget (q : Query.t) =
  Xks_lca.Keyword_nodes.union ?budget q.postings ~lo:0 ~hi:max_int ~skip:[||]

let get_rtfs ?budget (q : Query.t) lcas =
  let doc = q.doc in
  let knodes = keyword_node_ids ?budget q in
  let buckets = List.map (fun a -> (a, Xks_util.Int_vec.create ())) lcas in
  (* Sweep keyword nodes in document order, keeping a stack of the LCA
     intervals that contain the current position; the top of the stack is
     the deepest LCA ancestor. *)
  let stack = ref [] in
  let remaining = ref buckets in
  let dispatch id =
    Xks_robust.Budget.tick_opt budget 1;
    (* Open the LCA intervals starting at or before [id]. *)
    (* xkscost: unticked amortised: each LCA interval is opened exactly once across the sweep; dispatch ticks per keyword node *)
    let rec open_intervals () =
      match !remaining with
      | ((a, _) as entry) :: rest when a <= id ->
          remaining := rest;
          stack := entry :: !stack;
          open_intervals ()
      | _ -> ()
    in
    open_intervals ();
    (* Close the intervals that ended before [id]. *)
    (* xkscost: unticked amortised: each open interval is closed exactly once across the sweep; dispatch ticks per keyword node *)
    let rec close_intervals () =
      match !stack with
      | (a, _) :: rest when (Tree.node doc a).subtree_end < id ->
          stack := rest;
          close_intervals ()
      | _ -> ()
    in
    close_intervals ();
    match !stack with
    | (_, bucket) :: _ -> Xks_util.Int_vec.push bucket id
    | [] -> () (* keyword node under no LCA: not part of any partition *)
  in
  Array.iter dispatch knodes;
  List.map
    (fun (a, bucket) -> { lca = a; knodes = Xks_util.Int_vec.to_array bucket })
    buckets

let raw_fragment (q : Query.t) { lca; knodes } =
  let doc = q.doc in
  let members = ref [] in
  let add_path id =
    let rec up id =
      if id <> lca then begin
        members := id :: !members;
        up (Tree.node doc id).parent
      end
    in
    up id
  in
  Array.iter add_path knodes;
  Fragment.make ~root:lca ~members:!members
