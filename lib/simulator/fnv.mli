(** FNV-1a, 64-bit: the one digest behind every deterministic artifact
    (probe streams, series dumps, blame tables, generated graphs). Stable
    across runs, processes and architectures, unlike [Hashtbl.hash] or
    [Marshal], so a digest doubles as a determinism oracle. *)

val offset : int64
(** The FNV-1a 64-bit offset basis, [0xcbf29ce484222325]. *)

val string : int64 -> string -> int64
(** Folds every byte of the string into the hash. *)

val int : int64 -> int -> int64
(** Folds the eight little-endian bytes of the int into the hash. *)

val to_hex : int64 -> string
(** Sixteen lower-case hex digits ([%016Lx]). *)
