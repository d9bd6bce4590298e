(* A misspelt verb: "guarded" is not in xksrace's annotation table
   (the verb is guarded_by).  A typo must not silently disarm the
   check it was meant to arm, so the tool rejects the input (exit 2). *)

type t = {
  (* xksrace: guarded mutex *)
  mutable count : int;
  mutex : Mutex.t;
}

let incr t = Mutex.protect t.mutex (fun () -> t.count <- t.count + 1)
