(** Int-keyed hash table with an identity hash and [Int.equal]: lookups
    make no polymorphic hash or compare calls. Dense or sequential keys
    (store keys, sequence numbers) spread over the buckets as they are. *)

include Hashtbl.S with type key = int
