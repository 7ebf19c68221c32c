type meta = Sim.Time.t * int (* (update ts, origin dc) *)

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
  vv : Sim.Time.t array; (* max ts received from each remote dc *)
  mutable gst : Sim.Time.t;
  pending : pending Sim.Heap.t; (* applied payloads awaiting GST *)
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

let meta_wire_bytes = 12 (* ts (8) + origin (4): one scalar, as in the paper *)

let probe_vec t ~dc ~src ts =
  if Sim.Probe.active () then
    Sim.Probe.emit
      ~at:(Sim.Engine.now (Common.engine t.geo))
      (Sim.Probe.Vec_advance { dc; src; ts = Sim.Time.to_us ts })

let rec create ?series ~meta engine p hooks =
  let geo = Common.create ?series engine p in
  let n = Common.n_dcs geo in
  let dcs =
    Array.init n (fun _ ->
        {
          stores = Array.init p.Common.partitions (fun _ -> Kvstore.Store.create ());
          vv = Array.make n Sim.Time.zero;
          gst = Sim.Time.zero;
          pending =
            Sim.Heap.create ~cmp:(fun a b -> compare_meta a.meta b.meta) ();
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
  (* heartbeats: every dc promises its clock floor to every other dc *)
  for dc = 0 to n - 1 do
    Common.every geo cost.Saturn.Cost_model.heartbeat_period (fun () ->
        let floor = Common.dc_floor geo ~dc in
        for dst = 0 to n - 1 do
          if dst <> dc then begin
            Stats.Meta_bytes.record_heartbeat t.meta_bytes ~bytes:meta_wire_bytes;
            Common.ship geo ~src:dc ~dst ~size_bytes:meta_wire_bytes (fun () ->
                let d = t.dcs.(dst) in
                if Sim.Time.compare floor d.vv.(dc) > 0 then begin
                  d.vv.(dc) <- floor;
                  probe_vec t ~dc:dst ~src:dc floor
                end)
          end
        done)
  done;
  (* the stabilization mechanism, every 5 ms as in the authors' setup; the
     GST only advances once every partition has finished its aggregation
     task, so a loaded server delays stabilization — the effect the paper
     observes in Cure's and GentleRain's measured visibility *)
  for dc = 0 to n - 1 do
    Common.every geo cost.Saturn.Cost_model.stabilization_period (fun () ->
        let remaining = ref p.Common.partitions in
        for part = 0 to p.Common.partitions - 1 do
          Common.submit geo ~dc ~part ~cost_us:(Saturn.Cost_model.gentlerain_stab_us cost)
            (fun () ->
              decr remaining;
              if !remaining = 0 then finish_stab_round t dc)
        done)
  done;
  t

and finish_stab_round t dc =
  let geo = t.geo in
  let n = Common.n_dcs geo in
  begin
    let d = t.dcs.(dc) in
        let gst = ref Sim.Time.infinity in
        for src = 0 to n - 1 do
          if src <> dc then gst := Sim.Time.min !gst d.vv.(src)
        done;
        if n > 1 then d.gst <- Sim.Time.max d.gst !gst;
        if Sim.Probe.active () then
          Sim.Probe.emit
            ~at:(Sim.Engine.now (Common.engine geo))
            (Sim.Probe.Stab_round { dc; gst = Sim.Time.to_us d.gst });
        (* flush newly-stable remote updates *)
        let rec flush () =
          match Sim.Heap.peek d.pending with
          | Some pn when Sim.Time.compare (fst pn.meta) d.gst <= 0 ->
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
        let ready, still = List.partition (fun (ts, _) -> Sim.Time.compare ts d.gst <= 0) d.waiters in
        d.waiters <- still;
        List.iter (fun (_, k) -> k ()) ready
  end

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
          if Sim.Time.compare dt d.gst <= 0 then reply ()
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
          let cost_us = Saturn.Cost_model.gentlerain_read_us (cost t) ~size_bytes:size in
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
            Saturn.Cost_model.gentlerain_write_us (cost t) ~size_bytes:value.Kvstore.Value.size_bytes
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
                        if Sim.Time.compare ts dd.vv.(dc) > 0 then begin
                          dd.vv.(dc) <- ts;
                          probe_vec t ~dc:dst ~src:dc ts
                        end;
                        let apply_cost =
                          Saturn.Cost_model.gentlerain_apply_us (cost t)
                            ~size_bytes:value.Kvstore.Value.size_bytes
                        in
                        Common.submit t.geo ~dc:dst ~part:(Common.partition_of t.geo ~key)
                          ~cost_us:apply_cost (fun () ->
                            if Sim.Probe.active () then begin
                              let at = Sim.Engine.now (Common.engine t.geo) in
                              Sim.Span.end_ ~at Sim.Span.Sk_bulk ~origin:dc
                                ~seq:(Sim.Time.to_us ts) ~aux:part ~site:dc ~peer:dst;
                              (* stabilization hold: until the GST covers ts *)
                              Sim.Span.begin_ ~at Sim.Span.Sk_stab ~origin:dc
                                ~seq:(Sim.Time.to_us ts) ~aux:part ~site:dst
                            end;
                            Sim.Heap.push dd.pending { key; value; meta; origin_time }))
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
