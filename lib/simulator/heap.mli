(** Array-based binary min-heap, polymorphic in the element type.

    The ordering function is supplied at creation time. Used by the
    GentleRain, Eunomia and Okapi pending buffers, whose keys can tie; the
    engine's event queue and Saturn's label buffers use {!Keyed}. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> unit -> 'a t
(** Fresh empty heap ordered by [cmp] (smallest element at the top). *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the smallest element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Elements in unspecified order; does not modify the heap. *)

(** Min-heap keyed by a pair of unboxed integers, compared lexicographically
    [(k1, k2)]. Keys are stored in parallel [int array]s so the per-event hot
    path (engine queue, sink/proxy label buffers) touches flat arrays instead
    of chasing per-entry records through a comparison closure. The tree is
    4-ary with hole-based sifting. [push], [top_exn] and [pop_exn] never
    allocate (beyond amortised array doubling).

    Entries with equal keys pop in an unspecified order: every user keys
    its entries uniquely (the engine by (µs, scheduling sequence), the
    sink and proxy buffers by one (ts, source) per label). *)
module Keyed : sig
  type 'a t

  val create : ?capacity:int -> dummy:'a -> unit -> 'a t
  (** [dummy] fills unused slots so popped payloads do not leak. *)

  val size : 'a t -> int
  val is_empty : 'a t -> bool

  val push : 'a t -> k1:int -> k2:int -> 'a -> unit

  val top_exn : 'a t -> 'a
  (** Payload of the smallest key without removing it.
      @raise Invalid_argument on an empty heap. *)

  val min_k1 : 'a t -> int
  (** Primary key of the smallest entry. @raise Invalid_argument if empty. *)

  val pop_exn : 'a t -> 'a
  (** Removes and returns the payload of the smallest key. The popped
      entry's keys are readable via {!popped_k1}/{!popped_k2} until the next
      [pop_exn]. @raise Invalid_argument on an empty heap. *)

  val popped_k1 : 'a t -> int
  val popped_k2 : 'a t -> int
  (** Keys of the most recently popped entry. Unspecified before the first
      successful [pop_exn]. *)

  val clear : 'a t -> unit
end
