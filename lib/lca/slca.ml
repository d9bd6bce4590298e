module Tree = Xks_xml.Tree

(* In document order, a candidate has a candidate strictly below it iff
   its immediate successor is in its subtree (preorder ranges are
   intervals), so one linear sweep removes all non-minimal ones. *)
let rec filter_minimal doc = function
  | [] -> []
  | [ x ] -> [ x ]
  | x :: (y :: _ as rest) ->
      if y <= (Tree.node doc x).subtree_end then filter_minimal doc rest
      else x :: filter_minimal doc rest

let indexed_lookup_eager ?budget doc postings =
  let k = Array.length postings in
  (* xkscost: unticked k-bounded: one emptiness test per keyword list *)
  if k = 0 || Array.exists (fun s -> Array.length s = 0) postings then []
  else begin
    let s1 = postings.(Probe.smallest_list_index postings) in
    (* Candidate per occurrence of the rarest keyword: its deepest full
       container.  [fc] cannot return [-1] here since no list is
       empty. *)
    let candidate v =
      Xks_trace.Trace.incr Xks_trace.Trace.Nodes_visited;
      Xks_robust.Budget.tick_opt budget 1;
      Probe.fc doc postings v
    in
    (* Collect candidates in a per-domain scratch buffer and sort in
       place: the intermediate array + list of the old
       [Array.map |> to_list |> sort_uniq] chain was per-query minor-GC
       churn, which under multiple domains means stop-the-world
       barriers.  Minimality filtering reads straight from the sorted
       buffer (same test as [filter_minimal]: a candidate survives iff
       its successor is outside its subtree). *)
    Xks_util.Scratch.with_ints (fun buf ->
        Array.iter (fun v -> Xks_util.Int_vec.push buf (candidate v)) s1;
        Xks_util.Int_vec.sort_uniq buf;
        let n = Xks_util.Int_vec.length buf in
        let acc = ref [] in
        for i = n - 1 downto 0 do
          let x = Xks_util.Int_vec.get buf i in
          if
            i = n - 1
            || Xks_util.Int_vec.get buf (i + 1) > (Tree.node doc x).subtree_end
          then acc := x :: !acc
        done;
        !acc)
  end
