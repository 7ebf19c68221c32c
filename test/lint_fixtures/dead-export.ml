(* rule: dead-export
   An .mli val no other file references is surface the remaining rules
   must reason about for nothing — delete it (the compiler's unused-value
   warning then walks the dead implementation chain for you), or waive
   it naming the planned caller. Uses in test/, bench/, examples/ and
   perfbench/ count as live. Vals inside a [module type … = sig … end]
   declare a signature, not exports; an [include] in the .mli exports
   values it does not name, so the .ml's hidden-value check stays quiet. *)
(* --bad-- *)
(* @file lib/m.mli *)
val used : int -> int
val helper : int -> int
(* @file lib/m.ml *)
let used x = x + 1
let helper x = x * 2
(* @file lib/caller.ml *)
let y = M.used 1
(* --good-- *)
(* @file lib/s.mli *)
module type OPS = sig
  type t

  val run : t -> int
end
(* @file lib/s.ml *)
module type OPS = sig
  type t

  val run : t -> int
end
(* @file lib/m.mli *)
type t = int

include S.OPS with type t := t
val used : int -> int
(* @file lib/m.ml *)
type t = int

let run x = x
let used x = x + 1
(* @file lib/caller.ml *)
let y = M.used 1
