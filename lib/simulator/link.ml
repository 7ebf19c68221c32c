(* A group is the run of messages sharing one arrival instant: the link
   schedules one engine event per group instead of one per message. The
   messages themselves wait in [items], a FIFO ring of deliver callbacks in
   send order; the groups wait in [groups], a FIFO ring of (arrival µs,
   epoch, count) triples. Arrivals on a link never decrease, so groups fire
   in ring order and every engine event runs the same closure, [fire],
   which pops the head group. The group leaves the ring before its first
   delivery, so a callback that sends back through this link at the same
   instant starts a fresh group (a later engine event), preserving the
   per-message ordering. The epoch is checked per item at fire time, so a
   mid-group cut still drops exactly the in-flight tail. *)
type t = {
  engine : Engine.t;
  mutable base_latency : Time.t;
  jitter_us : int;
  bandwidth : float option;
  rng : Rng.t option;
  mutable last_arrival : Time.t;
  mutable up : bool;
  mutable epoch : int; (* bumped on cut: invalidates in-flight messages *)
  mutable items : (unit -> unit) array;
  mutable item_head : int;
  mutable item_len : int;
  mutable groups : int array; (* [group_stride] ints per group *)
  mutable group_head : int; (* offset of the head group's first int *)
  mutable group_len : int; (* groups, not ints *)
  fire : unit -> unit; (* the one closure every group's engine event runs *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_down : int; (* sent while the link was down *)
  mutable dropped_cut : int; (* in flight when the link was cut *)
  mutable bytes : int;
}

let group_stride = 3 (* arrival µs, epoch, count *)
let nop () = ()

(* Doubles a ring's array, unrolling it so the live span starts at 0. *)
let unroll a ~head ~used fill =
  let cap = Array.length a in
  let b = Array.make (2 * cap) fill in
  let first = min used (cap - head) in
  Array.blit a head b 0 first;
  Array.blit a 0 b first (used - first);
  b

let push_item t deliver =
  if t.item_len = Array.length t.items then begin
    t.items <- unroll t.items ~head:t.item_head ~used:t.item_len nop;
    t.item_head <- 0
  end;
  let i = t.item_head + t.item_len in
  let cap = Array.length t.items in
  t.items.(if i >= cap then i - cap else i) <- deliver;
  t.item_len <- t.item_len + 1

let pop_item t =
  let h = t.item_head in
  let deliver = t.items.(h) in
  t.items.(h) <- nop;
  t.item_head <- (if h + 1 = Array.length t.items then 0 else h + 1);
  t.item_len <- t.item_len - 1;
  deliver

(* Offset of the tail group's first int; the ring must be non-empty. *)
let tail_group t =
  let o = t.group_head + ((t.group_len - 1) * group_stride) in
  let cap = Array.length t.groups in
  if o >= cap then o - cap else o

let push_group t ~at =
  let used = t.group_len * group_stride in
  if used = Array.length t.groups then begin
    t.groups <- unroll t.groups ~head:t.group_head ~used 0;
    t.group_head <- 0
  end;
  t.group_len <- t.group_len + 1;
  let o = tail_group t in
  t.groups.(o) <- at;
  t.groups.(o + 1) <- t.epoch;
  t.groups.(o + 2) <- 1

let fire t =
  let g = t.groups and o = t.group_head in
  let epoch = g.(o + 1) and n = g.(o + 2) in
  t.group_head <- (if o + group_stride = Array.length g then 0 else o + group_stride);
  t.group_len <- t.group_len - 1;
  let at = Engine.now t.engine in
  for _ = 1 to n do
    let deliver = pop_item t in
    (* per-item check: a cut by an earlier item in this group (epoch bump)
       drops the rest, exactly as per-message events did *)
    if t.up && t.epoch = epoch then begin
      t.delivered <- t.delivered + 1;
      if Probe.active () then Probe.emit ~at Probe.Link_deliver;
      deliver ()
    end
    else begin
      t.dropped_cut <- t.dropped_cut + 1;
      if Probe.active () then Probe.emit ~at (Probe.Link_drop { in_flight = true })
    end
  done

let create ?(jitter_us = 0) ?bandwidth_bytes_per_us ?rng engine ~latency () =
  if jitter_us > 0 && rng = None then invalid_arg "Link.create: jitter requires an rng";
  let rec t =
    {
      engine;
      base_latency = latency;
      jitter_us;
      bandwidth = bandwidth_bytes_per_us;
      rng;
      last_arrival = Time.zero;
      up = true;
      epoch = 0;
      items = Array.make 8 nop;
      item_head = 0;
      item_len = 0;
      groups = Array.make (4 * group_stride) 0;
      group_head = 0;
      group_len = 0;
      fire = (fun () -> fire t);
      sent = 0;
      delivered = 0;
      dropped_down = 0;
      dropped_cut = 0;
      bytes = 0;
    }
  in
  t

let delay t ~size_bytes =
  let jitter =
    match (t.jitter_us, t.rng) with
    | 0, _ | _, None -> 0
    | j, Some rng -> Rng.int rng j
  in
  let transmission =
    match t.bandwidth with
    | None -> 0
    | Some bw -> if bw <= 0. then 0 else int_of_float (float_of_int size_bytes /. bw)
  in
  Time.add t.base_latency (Time.of_us (jitter + transmission))

let send t ?(size_bytes = 0) deliver =
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + size_bytes;
  if Probe.active () then Probe.emit ~at:(Engine.now t.engine) (Probe.Link_send { size_bytes });
  if not t.up then begin
    t.dropped_down <- t.dropped_down + 1;
    if Probe.active () then
      Probe.emit ~at:(Engine.now t.engine) (Probe.Link_drop { in_flight = false })
  end
  else begin
    let now = Engine.now t.engine in
    let arrival = Time.max (Time.add now (delay t ~size_bytes)) t.last_arrival in
    t.last_arrival <- arrival;
    push_item t deliver;
    let at = Time.to_us arrival in
    let o = if t.group_len > 0 then tail_group t else -1 in
    if o >= 0 && t.groups.(o) = at && t.groups.(o + 1) = t.epoch then
      t.groups.(o + 2) <- t.groups.(o + 2) + 1
    else begin
      push_group t ~at;
      Engine.schedule_at t.engine arrival t.fire
    end
  end

let set_latency t l = t.base_latency <- l
let latency t = t.base_latency

let cut t =
  t.up <- false;
  t.epoch <- t.epoch + 1

let restore t = t.up <- true
let is_up t = t.up
let delivered_count t = t.delivered
let dropped_count t = t.dropped_down + t.dropped_cut
let dropped_down_count t = t.dropped_down
let dropped_cut_count t = t.dropped_cut
let in_flight_count t = t.sent - t.delivered - t.dropped_down - t.dropped_cut
