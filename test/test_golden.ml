(* Golden answers: one digest over every hit of a generated workload and
   one over every pruning explanation.  Both digests were recorded
   before the linear-time constructing and pruning steps replaced the
   hashed ones, and any semantic drift in getRTF, node-info
   construction, pruning, ranking or SLCA tagging changes them.  They
   are pins, not snapshots: a mismatch is a regression to fix, never a
   value to regenerate. *)

module Engine = Xks_core.Engine
module Explain = Xks_core.Explain
module Node_info = Xks_core.Node_info
module Fragment = Xks_core.Fragment
module Cid = Xks_index.Cid

let corpus =
  lazy
    (let doc =
       Xks_datagen.Dblp_gen.(
         generate ~config:{ default_config with entries = 400; seed = 7 } ())
     in
     let idx = Xks_index.Inverted.build doc in
     let workload = Xks_datagen.Workload_gen.generate ~seed:11 ~count:120 idx in
     (Engine.of_index idx, workload))

let cid_modes = [ ("approx", Cid.Approx); ("exact", Cid.Exact) ]

let algorithms =
  [
    ("validrtf", Engine.Validrtf);
    ("maxmatch", Engine.Maxmatch);
    ("maxmatch-original", Engine.Maxmatch_original);
  ]

let add_ints buf ids =
  List.iter (fun id -> Buffer.add_string buf (string_of_int id ^ ",")) ids

(* Fragment members, exact score bits and the SLCA tag of every hit, per
   query, algorithm and content-feature mode. *)
let hits_digest () =
  let engine, workload = Lazy.force corpus in
  let buf = Buffer.create 65536 in
  List.iter
    (fun ws ->
      List.iter
        (fun (alg_name, algorithm) ->
          List.iter
            (fun (mode_name, cid_mode) ->
              Printf.bprintf buf "Q %s %s %s\n" (String.concat " " ws)
                alg_name mode_name;
              List.iter
                (fun (h : Engine.hit) ->
                  add_ints buf (Fragment.members_list h.fragment);
                  Printf.bprintf buf " %Lx %b\n"
                    (Int64.bits_of_float h.score) h.is_slca)
                (Engine.search ~algorithm ~cid_mode engine ws))
            cid_modes)
        algorithms)
    workload;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let reason_code = function
  | Explain.Kept_root -> "root"
  | Kept_unique_label -> "unique"
  | Kept_maximal -> "maximal"
  | Kept_distinct_content -> "distinct"
  | Discarded_covered id -> Printf.sprintf "covered:%d" id
  | Discarded_duplicate id -> Printf.sprintf "duplicate:%d" id
  | Discarded_with_ancestor id -> Printf.sprintf "ancestor:%d" id

(* Every valid-contributor decision, with its reason and triggering
   sibling, over every ValidRTF raw RTF of the workload. *)
let explain_digest () =
  let engine, workload = Lazy.force corpus in
  let buf = Buffer.create 65536 in
  List.iter
    (fun ws ->
      let result = Engine.run engine ws in
      List.iter
        (fun (mode_name, cid_mode) ->
          Printf.bprintf buf "Q %s %s\n" (String.concat " " ws) mode_name;
          List.iter
            (fun rtf ->
              let info = Node_info.construct ~cid_mode result.query rtf in
              List.iter
                (fun (d : Explain.decision) ->
                  Printf.bprintf buf "%d %s;" d.node (reason_code d.reason))
                (Explain.valid_contributor info);
              Buffer.add_char buf '\n')
            result.rtfs)
        cid_modes)
    workload;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_hits_pinned () =
  Alcotest.(check string)
    "hits digest" "4032ea35c6d0cdb795fa26d4ad3bde3b" (hits_digest ())

let test_explain_pinned () =
  Alcotest.(check string) "explain digest"
    "5deea91590a50378e83a6e2258aef233" (explain_digest ())

let tests =
  [
    Alcotest.test_case "hits of a generated workload are pinned" `Quick
      test_hits_pinned;
    Alcotest.test_case "explain decisions of a generated workload are pinned"
      `Quick test_explain_pinned;
  ]
