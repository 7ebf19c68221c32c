(* Reference model for the differential link test: the batch-per-instant
   FIFO link that [Sim.Link] replaced. Each batch is its own record with a
   growable item array and a scheduled closure; [Sim.Link] must deliver,
   drop, count and schedule exactly as this does. Only the subset of the
   interface the test drives is kept. *)

type batch = {
  b_epoch : int;
  mutable b_items : (unit -> unit) array;
  mutable b_n : int;
  mutable b_fired : bool;
}

type t = {
  engine : Sim.Engine.t;
  mutable base_latency : Sim.Time.t;
  jitter_us : int;
  bandwidth : float option;
  rng : Sim.Rng.t option;
  mutable last_arrival : Sim.Time.t;
  mutable up : bool;
  mutable epoch : int;
  mutable open_batch : batch option;
  mutable open_batch_at : Sim.Time.t;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_down : int;
  mutable dropped_cut : int;
}

let create ?(jitter_us = 0) ?bandwidth_bytes_per_us ?rng engine ~latency () =
  {
    engine;
    base_latency = latency;
    jitter_us;
    bandwidth = bandwidth_bytes_per_us;
    rng;
    last_arrival = Sim.Time.zero;
    up = true;
    epoch = 0;
    open_batch = None;
    open_batch_at = Sim.Time.zero;
    sent = 0;
    delivered = 0;
    dropped_down = 0;
    dropped_cut = 0;
  }

let delay t ~size_bytes =
  let jitter =
    match (t.jitter_us, t.rng) with
    | 0, _ | _, None -> 0
    | j, Some rng -> Sim.Rng.int rng j
  in
  let transmission =
    match t.bandwidth with
    | None -> 0
    | Some bw -> if bw <= 0. then 0 else int_of_float (float_of_int size_bytes /. bw)
  in
  Sim.Time.add t.base_latency (Sim.Time.of_us (jitter + transmission))

let nop () = ()

let batch_push b deliver =
  let cap = Array.length b.b_items in
  if b.b_n = cap then begin
    let bigger = Array.make (cap * 2) nop in
    Array.blit b.b_items 0 bigger 0 b.b_n;
    b.b_items <- bigger
  end;
  b.b_items.(b.b_n) <- deliver;
  b.b_n <- b.b_n + 1

let fire t b =
  b.b_fired <- true;
  (match t.open_batch with
  | Some ob when ob.b_fired -> t.open_batch <- None
  | Some _ | None -> ());
  let at = Sim.Engine.now t.engine in
  for i = 0 to b.b_n - 1 do
    if t.up && t.epoch = b.b_epoch then begin
      t.delivered <- t.delivered + 1;
      if Sim.Probe.active () then Sim.Probe.emit ~at Sim.Probe.Link_deliver;
      b.b_items.(i) ()
    end
    else begin
      t.dropped_cut <- t.dropped_cut + 1;
      if Sim.Probe.active () then Sim.Probe.emit ~at (Sim.Probe.Link_drop { in_flight = true })
    end;
    b.b_items.(i) <- nop
  done

let send t ?(size_bytes = 0) deliver =
  t.sent <- t.sent + 1;
  let now = Sim.Engine.now t.engine in
  if Sim.Probe.active () then Sim.Probe.emit ~at:now (Sim.Probe.Link_send { size_bytes });
  if not t.up then begin
    t.dropped_down <- t.dropped_down + 1;
    if Sim.Probe.active () then Sim.Probe.emit ~at:now (Sim.Probe.Link_drop { in_flight = false })
  end
  else begin
    let arrival = Sim.Time.max (Sim.Time.add now (delay t ~size_bytes)) t.last_arrival in
    t.last_arrival <- arrival;
    match t.open_batch with
    | Some b
      when (not b.b_fired) && b.b_epoch = t.epoch && Sim.Time.equal t.open_batch_at arrival ->
      batch_push b deliver
    | Some _ | None ->
      let b = { b_epoch = t.epoch; b_items = Array.make 4 nop; b_n = 0; b_fired = false } in
      batch_push b deliver;
      t.open_batch <- Some b;
      t.open_batch_at <- arrival;
      Sim.Engine.schedule_at t.engine arrival (fun () -> fire t b)
  end

let set_latency t l = t.base_latency <- l

let cut t =
  t.up <- false;
  t.epoch <- t.epoch + 1

let restore t = t.up <- true
let delivered_count t = t.delivered
let dropped_down_count t = t.dropped_down
let dropped_cut_count t = t.dropped_cut
let in_flight_count t = t.sent - t.delivered - t.dropped_down - t.dropped_cut
