(* The int annotations matter: unannotated, these generalise to
   ['a array] and every probe goes through polymorphic comparison and
   the float-array check on each read, roughly doubling the cost of the
   LCA scans, dispatch and scoring that sit on top of them. *)
let lower_bound (a : int array) (x : int) =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound (a : int array) (x : int) =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let left_match a x =
  let i = upper_bound a x in
  if i = 0 then None else Some a.(i - 1)

let right_match a x =
  let i = lower_bound a x in
  if i = Array.length a then None else Some a.(i)

let mem a x =
  let i = lower_bound a x in
  i < Array.length a && a.(i) = x

let count_in_range a ~lo ~hi =
  if hi < lo then 0 else upper_bound a hi - lower_bound a lo

let first_in_range a ~lo ~hi =
  let i = lower_bound a lo in
  if i < Array.length a && a.(i) <= hi then Some a.(i) else None
