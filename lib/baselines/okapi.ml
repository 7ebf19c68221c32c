type meta = Sim.Time.t * int (* (hybrid ts, origin dc) *)

let compare_meta (ta, da) (tb, db) =
  match Sim.Time.compare ta tb with 0 -> Int.compare da db | c -> c

type pending = {
  key : int;
  value : Kvstore.Value.t;
  meta : meta;
  origin_time : Sim.Time.t;
}

type dc_state = {
  stores : (meta, int) Kvstore.Store.t array;
  known : Sim.Time.t array array; (* known.(i).(k): what DC i has received from k *)
  mutable ust : Sim.Time.t; (* min over the whole matrix *)
  pending : pending Sim.Heap.t; (* applied payloads awaiting UST *)
  mutable waiters : (Sim.Time.t * (unit -> unit)) list; (* attach waits *)
}

type t = {
  geo : Common.t;
  hooks : Common.hooks;
  dcs : dc_state array;
  client_dt : (int, Sim.Time.t) Hashtbl.t; (* client dependency time *)
  apply_series : Stats.Series.counter option array; (* per dc *)
  meta_bytes : Stats.Meta_bytes.t;
}

(* hybrid timestamp (physical 8 + logical 4) + origin (4) + dependency
   cut (8): a constant, between GentleRain's scalar and Cure's vector *)
let meta_wire_bytes = 24

(* one matrix row: n scalar entries (8 each) + row owner (4) *)
let row_wire_bytes n = (8 * n) + 4

let probe_vec t ~dc ~src ts =
  if Sim.Probe.active () then
    Sim.Probe.emit
      ~at:(Sim.Engine.now (Common.engine t.geo))
      (Sim.Probe.Vec_advance { dc; src; ts = Sim.Time.to_us ts })

(* Recompute dc's UST from its matrix and flush every pending remote
   update it now covers: UST ≥ ts means every DC has received everything
   up to ts, so installing in timestamp order cannot skip a dependency. *)
let advance t dc =
  let geo = t.geo in
  let n = Common.n_dcs geo in
  let d = t.dcs.(dc) in
  let ust = ref Sim.Time.infinity in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      ust := Sim.Time.min !ust d.known.(i).(k)
    done
  done;
  if n > 1 && Sim.Time.compare !ust d.ust > 0 then d.ust <- !ust;
  let rec flush () =
    match Sim.Heap.peek d.pending with
    | Some pn when Sim.Time.compare (fst pn.meta) d.ust <= 0 ->
      let pn = Sim.Heap.pop_exn d.pending in
      let part = Common.partition_of geo ~key:pn.key in
      if Sim.Probe.active () then
        Sim.Span.end_
          ~at:(Sim.Engine.now (Common.engine geo))
          Sim.Span.Sk_stab ~origin:(snd pn.meta)
          ~seq:(Sim.Time.to_us (fst pn.meta))
          ~aux:part ~site:dc;
      let _ =
        Kvstore.Store.put_if_newer d.stores.(part) ~cmp:compare_meta ~key:pn.key pn.value pn.meta
      in
      (match t.apply_series.(dc) with
      | Some c -> Stats.Series.incr c ~now:(Sim.Engine.now (Common.engine geo))
      | None -> ());
      t.hooks.Common.on_visible ~dc ~key:pn.key ~origin_dc:(snd pn.meta)
        ~origin_time:pn.origin_time ~value:pn.value;
      flush ()
    | Some _ | None -> ()
  in
  flush ();
  let ready, still = List.partition (fun (ts, _) -> Sim.Time.compare ts d.ust <= 0) d.waiters in
  d.waiters <- still;
  List.iter (fun (_, k) -> k ()) ready

(* Merge a broadcast of src's own matrix row into dst's matrix. The row's
   diagonal entry is src's announced floor: merging it into dst's own row
   is safe because any payload below the floor was shipped before the row
   on the same FIFO link. *)
let merge_row t ~dst ~src row =
  let d = t.dcs.(dst) in
  Array.iteri
    (fun k x -> if Sim.Time.compare x d.known.(src).(k) > 0 then d.known.(src).(k) <- x)
    row;
  if Sim.Time.compare row.(src) d.known.(dst).(src) > 0 then begin
    d.known.(dst).(src) <- row.(src);
    probe_vec t ~dc:dst ~src row.(src)
  end;
  advance t dst

let rec create ?series ~meta engine p hooks =
  let geo = Common.create ?series engine p in
  let n = Common.n_dcs geo in
  let dcs =
    Array.init n (fun _ ->
        {
          stores = Array.init p.Common.partitions (fun _ -> Kvstore.Store.create ());
          known = Array.init n (fun _ -> Array.make n Sim.Time.zero);
          ust = Sim.Time.zero;
          pending = Sim.Heap.create ~cmp:(fun a b -> compare_meta a.meta b.meta) ();
          waiters = [];
        })
  in
  let apply_series =
    Array.init n (fun dc ->
        Option.map
          (fun sr -> Stats.Series.counter sr (Printf.sprintf "series.apply.dc%d" dc))
          series)
  in
  let t = { geo; hooks; dcs; client_dt = Hashtbl.create 256; apply_series; meta_bytes = meta } in
  (match series with
  | Some sr ->
    for dc = 0 to n - 1 do
      Stats.Series.sample sr
        (Printf.sprintf "series.pending.dc%d" dc)
        (fun () -> float_of_int (Sim.Heap.size t.dcs.(dc).pending))
    done
  | None -> ());
  let cost = p.Common.cost in
  (* stable-time rounds: like Cure the round only completes once every
     partition has finished its (cheaper, one-entry) aggregation task; the
     completed round broadcasts this DC's matrix row. No heartbeats. *)
  for dc = 0 to n - 1 do
    Common.every geo cost.Saturn.Cost_model.stabilization_period (fun () ->
        let remaining = ref p.Common.partitions in
        for part = 0 to p.Common.partitions - 1 do
          Common.submit geo ~dc ~part ~cost_us:(Saturn.Cost_model.okapi_stab_us cost)
            (fun () ->
              decr remaining;
              if !remaining = 0 then finish_stab_round t dc)
        done)
  done;
  t

and finish_stab_round t dc =
  let geo = t.geo in
  let n = Common.n_dcs geo in
  let d = t.dcs.(dc) in
  let floor = Common.dc_floor geo ~dc in
  if Sim.Time.compare floor d.known.(dc).(dc) > 0 then d.known.(dc).(dc) <- floor;
  if Sim.Probe.active () then
    Sim.Probe.emit
      ~at:(Sim.Engine.now (Common.engine geo))
      (Sim.Probe.Stab_round { dc; gst = Sim.Time.to_us d.ust });
  let row = Array.copy d.known.(dc) in
  for dst = 0 to n - 1 do
    if dst <> dc then begin
      Stats.Meta_bytes.record_stabilization t.meta_bytes ~bytes:(row_wire_bytes n);
      Common.ship geo ~src:dc ~dst ~size_bytes:(row_wire_bytes n) (fun () ->
          merge_row t ~dst ~src:dc row)
    end
  done;
  advance t dc

let fabric t = t.geo
let cost t = (Common.params t.geo).Common.cost
let rmap t = (Common.params t.geo).Common.rmap
let client_dt t client = Option.value ~default:Sim.Time.zero (Hashtbl.find_opt t.client_dt client)

let bump_dt t client ts =
  let cur = client_dt t client in
  if Sim.Time.compare ts cur > 0 then Hashtbl.replace t.client_dt client ts

let attach t ~client ~home ~dc ~k =
  Common.round_trip t.geo ~home ~dc
    (fun reply ->
      Common.via_frontend t.geo ~dc (fun () ->
          let d = t.dcs.(dc) in
          let dt = client_dt t client in
          if Sim.Time.compare dt d.ust <= 0 then reply ()
          else d.waiters <- (dt, reply) :: d.waiters))
    ~k

let read t ~client ~home ~dc ~key ~k =
  Common.round_trip t.geo ~home ~dc
    (fun reply ->
      Common.via_frontend t.geo ~dc (fun () ->
          let part = Common.partition_of t.geo ~key in
          let store = t.dcs.(dc).stores.(part) in
          let size =
            match Kvstore.Store.get store ~key with
            | Some (v, _) -> v.Kvstore.Value.size_bytes
            | None -> 0
          in
          let cost_us = Saturn.Cost_model.okapi_read_us (cost t) ~size_bytes:size in
          Common.submit t.geo ~dc ~part ~cost_us (fun () -> reply (Kvstore.Store.get store ~key))))
    ~k:(fun result ->
      match result with
      | Some (v, (ts, _)) ->
        bump_dt t client ts;
        k (Some v)
      | None -> k None)

let update t ~client ~home ~dc ~key ~value ~k =
  Common.round_trip t.geo ~home ~dc
    (fun reply ->
      Common.via_frontend t.geo ~dc (fun () ->
          let part = Common.partition_of t.geo ~key in
          let cost_us =
            Saturn.Cost_model.okapi_write_us (cost t) ~size_bytes:value.Kvstore.Value.size_bytes
          in
          Common.submit t.geo ~dc ~part ~cost_us (fun () ->
              let ts = Common.gen_ts t.geo ~dc ~part ~floor:(client_dt t client) in
              let meta = (ts, dc) in
              Kvstore.Store.put t.dcs.(dc).stores.(part) ~key value meta;
              let origin_time = Sim.Engine.now (Common.engine t.geo) in
              let size = value.Kvstore.Value.size_bytes + meta_wire_bytes in
              let fanout = ref 0 in
              List.iter
                (fun dst ->
                  if dst <> dc then begin
                    incr fanout;
                    if Sim.Probe.active () then
                      Sim.Span.begin_ ~at:origin_time Sim.Span.Sk_bulk ~origin:dc
                        ~seq:(Sim.Time.to_us ts) ~aux:part ~site:dc ~peer:dst;
                    Common.ship t.geo ~src:dc ~dst ~size_bytes:size (fun () ->
                        let dd = t.dcs.(dst) in
                        if Sim.Time.compare ts dd.known.(dst).(dc) > 0 then begin
                          dd.known.(dst).(dc) <- ts;
                          probe_vec t ~dc:dst ~src:dc ts
                        end;
                        let apply_cost =
                          Saturn.Cost_model.okapi_apply_us (cost t)
                            ~size_bytes:value.Kvstore.Value.size_bytes
                        in
                        Common.submit t.geo ~dc:dst ~part:(Common.partition_of t.geo ~key)
                          ~cost_us:apply_cost (fun () ->
                            if Sim.Probe.active () then begin
                              let at = Sim.Engine.now (Common.engine t.geo) in
                              Sim.Span.end_ ~at Sim.Span.Sk_bulk ~origin:dc
                                ~seq:(Sim.Time.to_us ts) ~aux:part ~site:dc ~peer:dst;
                              (* universal-stability hold: until UST ≥ ts *)
                              Sim.Span.begin_ ~at Sim.Span.Sk_stab ~origin:dc
                                ~seq:(Sim.Time.to_us ts) ~aux:part ~site:dst
                            end;
                            Sim.Heap.push dd.pending { key; value; meta; origin_time };
                            advance t dst))
                  end)
                (Kvstore.Replica_map.replicas (rmap t) ~key);
              Stats.Meta_bytes.record_op t.meta_bytes ~bytes:meta_wire_bytes ~fanout:!fanout;
              reply ts)))
    ~k:(fun ts ->
      bump_dt t client ts;
      k ())

let stop t = Common.stop t.geo

let store_value t ~dc ~key =
  let part = Common.partition_of t.geo ~key in
  Option.map fst (Kvstore.Store.get t.dcs.(dc).stores.(part) ~key)
