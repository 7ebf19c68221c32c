(* Values indexed by a dense sequence number whose live window only moves
   up: [seq] sits at [seq land (capacity - 1)] while
   [lo <= seq < lo + capacity]. Chain seqs are dense from 0, so this
   replaces a seq-keyed hash table with array reads. *)
module Ring = struct
  type 'a t = { mutable lo : int; mutable slots : 'a array; empty : 'a }

  let create empty = { lo = 0; slots = Array.make 64 empty; empty }

  let get r seq =
    let cap = Array.length r.slots in
    if seq < r.lo || seq - r.lo >= cap then r.empty else r.slots.(seq land (cap - 1))

  (* [seq >= r.lo] *)
  let rec set r seq v =
    let cap = Array.length r.slots in
    if seq - r.lo < cap then r.slots.(seq land (cap - 1)) <- v
    else begin
      let bigger = Array.make (2 * cap) r.empty in
      for s = r.lo to r.lo + cap - 1 do
        bigger.(s land ((2 * cap) - 1)) <- r.slots.(s land (cap - 1))
      done;
      r.slots <- bigger;
      set r seq v
    end

  (* forgets every seq below [floor] *)
  let drop_below r floor =
    let cap = Array.length r.slots in
    for s = r.lo to min (floor - 1) (r.lo + cap - 1) do
      r.slots.(s land (cap - 1)) <- r.empty
    done;
    if floor > r.lo then r.lo <- floor
end

module Key_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = Int.equal a1 a2 && Int.equal b1 b2
  let hash (a, b) = ((a * 65599) + b) land max_int
end)

type 'msg replica = {
  store : 'msg option Ring.t; (* seq -> stored message *)
  mutable max_contig : int; (* highest seq with all 0..seq stored; -1 if none *)
  mutable alive : bool;
}

type 'msg t = {
  engine : Sim.Engine.t;
  intra_latency : Sim.Time.t;
  deliver : 'msg -> unit;
  reps : 'msg replica array;
  mutable order : int list; (* alive replica ids, head first *)
  succ : int array; (* next alive replica after each alive one; -1 at the tail *)
  mutable tail : int; (* -1 when every replica crashed *)
  mutable n_alive : int;
  mutable next_seq : int;
  mutable committed : int; (* seqs [0, committed) delivered *)
  dedup : int Key_tbl.t; (* ext_key -> assigned seq *)
  keys : (int * int) Ring.t;
    (* seq -> ext_key for seqs [dedup floor, next_seq): dedup entries expire
       from here in seq order *)
  confirms : (unit -> unit) option Ring.t; (* seq -> external confirm, until commit *)
  mutable on_head_change : unit -> unit;
}

let relink t =
  Array.fill t.succ 0 (Array.length t.succ) (-1);
  let rec go = function
    | a :: (b :: _ as rest) ->
      t.succ.(a) <- b;
      go rest
    | [ last ] -> t.tail <- last
    | [] -> t.tail <- -1
  in
  go t.order;
  t.n_alive <- List.length t.order

let create engine ~replicas ~intra_latency ~deliver () =
  if replicas < 1 then invalid_arg "Chain.create: replicas < 1";
  let t =
    {
      engine;
      intra_latency;
      deliver;
      reps =
        Array.init replicas (fun _ ->
            { store = Ring.create None; max_contig = -1; alive = true });
      order = List.init replicas Fun.id;
      succ = Array.make replicas (-1);
      tail = -1;
      n_alive = 0;
      next_seq = 0;
      committed = 0;
      dedup = Key_tbl.create 64;
      keys = Ring.create (-1, -1);
      confirms = Ring.create None;
      on_head_change = (fun () -> ());
    }
  in
  relink t;
  t

let set_on_head_change t f = t.on_head_change <- f
let alive_replicas t = t.n_alive
let committed t = t.committed
let is_down t = t.tail < 0

let compact_window = 1024

(* amortised O(1): the dedup keys below the floor are exactly the keys
   ring's entries below it, in seq order *)
let compact t =
  let floor = t.committed - compact_window in
  if floor > 0 then begin
    for seq = t.keys.Ring.lo to floor - 1 do
      Key_tbl.remove t.dedup (Ring.get t.keys seq)
    done;
    Ring.drop_below t.keys floor;
    Array.iter (fun r -> if r.alive then Ring.drop_below r.store floor) t.reps
  end

let rec try_commit t =
  if t.tail >= 0 then begin
    let tail = t.reps.(t.tail) in
    if tail.max_contig >= t.committed then begin
      let seq = t.committed in
      t.committed <- seq + 1;
      let msg = match Ring.get tail.store seq with Some msg -> msg | None -> assert false in
      (* the dedup entry is kept for a window after commit: a retransmission
         whose ack was lost must be confirmed, not committed again; entries
         far below the committed point can no longer be retransmitted and
         are compacted away *)
      t.deliver msg;
      if seq land 255 = 0 then compact t;
      let confirm = Ring.get t.confirms seq in
      Ring.drop_below t.confirms (seq + 1);
      (match confirm with
      | Some confirm ->
        if Sim.Probe.active () then
          Sim.Probe.emit ~at:(Sim.Engine.now t.engine) (Sim.Probe.Chain_ack { seq });
        (* the commit ack travels back up the chain before the external
           sender is acknowledged *)
        let upstream_hops = t.n_alive - 1 in
        let delay = Sim.Time.of_us (upstream_hops * Sim.Time.to_us t.intra_latency) in
        Sim.Engine.schedule t.engine ~delay confirm
      | None -> ());
      try_commit t
    end
  end

(* a seq below a replica's compacted window was committed long ago: it is
   neither stored again nor forwarded *)
let rec store_at t id ~seq entry =
  let r = t.reps.(id) in
  if r.alive && seq >= r.store.Ring.lo && Option.is_none (Ring.get r.store seq) then begin
    Ring.set r.store seq entry;
    while Option.is_some (Ring.get r.store (r.max_contig + 1)) do
      r.max_contig <- r.max_contig + 1
    done;
    forward t id ~seq entry
  end

and forward t id ~seq entry =
  let succ = t.succ.(id) in
  if succ >= 0 then
    Sim.Engine.schedule t.engine ~delay:t.intra_latency (fun () ->
        if t.reps.(succ).alive then store_at t succ ~seq entry)
  else try_commit t

let input t ~ext_key msg ~confirm =
  match t.order with
  | [] -> () (* chain down: no ack, the sender keeps retransmitting *)
  | head :: _ -> (
    match Key_tbl.find t.dedup ext_key with
    | seq ->
      (* retransmission of a message the chain already holds *)
      if seq < t.committed then confirm () else Ring.set t.confirms seq (Some confirm)
    | exception Not_found ->
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      Key_tbl.replace t.dedup ext_key seq;
      Ring.set t.keys seq ext_key;
      Ring.set t.confirms seq (Some confirm);
      store_at t head ~seq (Some msg))

let resync t =
  (* every adjacent pair re-syncs: the predecessor holds a superset (chain
     prefix property), so it can replay whatever the successor is missing *)
  let rec pairs = function
    | p :: (s :: _ as rest) ->
      let pred = t.reps.(p) and succ = t.reps.(s) in
      for seq = succ.max_contig + 1 to pred.max_contig do
        let entry = Ring.get pred.store seq in
        assert (Option.is_some entry);
        Sim.Engine.schedule t.engine ~delay:t.intra_latency (fun () ->
            if t.reps.(s).alive then store_at t s ~seq entry)
      done;
      pairs rest
    | [ _ ] | [] -> ()
  in
  pairs t.order

let crash_replica t i =
  if i < 0 || i >= Array.length t.reps then invalid_arg "Chain.crash_replica: no such replica";
  if not t.reps.(i).alive then invalid_arg "Chain.crash_replica: already crashed";
  let was_head = match t.order with h :: _ -> h = i | [] -> false in
  t.reps.(i).alive <- false;
  t.order <- List.filter (fun id -> id <> i) t.order;
  relink t;
  (match t.order with
  | [] -> ()
  | new_head :: _ ->
    if was_head then begin
      (* sequence numbers the dead head assigned but never replicated are
         lost; their dedup entries and confirms must go so retransmissions
         are re-keyed *)
      let floor = max t.committed (t.reps.(new_head).max_contig + 1) in
      for seq = floor to t.next_seq - 1 do
        Key_tbl.remove t.dedup (Ring.get t.keys seq);
        Ring.set t.confirms seq None
      done;
      t.next_seq <- floor
    end;
    resync t;
    try_commit t;
    if was_head then t.on_head_change ())
