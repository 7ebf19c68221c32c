type meta = { vc : Sim.Time.t array; origin : int }

(* last-writer-wins on (commit timestamp, origin) *)
let compare_meta a b =
  match Sim.Time.compare a.vc.(a.origin) b.vc.(b.origin) with
  | 0 -> Int.compare a.origin b.origin
  | c -> c

type pending = {
  key : int;
  value : Kvstore.Value.t;
  meta : meta;
  origin_time : Sim.Time.t;
}

type dc_state = {
  stores : (meta, int) Kvstore.Store.t array;
  vv : Sim.Time.t array;
  gsv : Sim.Time.t array; (* snapshot taken at stabilization rounds *)
  mutable pending : pending list;
  mutable waiters : (Sim.Time.t array * (unit -> unit)) list;
}

type t = {
  geo : Common.t;
  hooks : Common.hooks;
  dcs : dc_state array;
  client_dv : (int, Sim.Time.t array) Hashtbl.t;
  apply_series : Stats.Series.counter option array; (* per dc *)
  meta_bytes : Stats.Meta_bytes.t;
}

let vector_wire_bytes n = (8 * n) + 4

let dominated ~except v ~by =
  let ok = ref true in
  Array.iteri (fun j x -> if j <> except && Sim.Time.compare x by.(j) > 0 then ok := false) v;
  !ok

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
          gsv = Array.make n Sim.Time.zero;
          pending = [];
          waiters = [];
        })
  in
  let apply_series =
    Array.init n (fun dc ->
        Option.map
          (fun sr -> Stats.Series.counter sr (Printf.sprintf "series.apply.dc%d" dc))
          series)
  in
  let t = { geo; hooks; dcs; client_dv = Hashtbl.create 256; apply_series; meta_bytes = meta } in
  (match series with
  | Some sr ->
    for dc = 0 to n - 1 do
      Stats.Series.sample sr
        (Printf.sprintf "series.pending.dc%d" dc)
        (fun () -> float_of_int (List.length t.dcs.(dc).pending))
    done
  | None -> ());
  let cost = p.Common.cost in
  for dc = 0 to n - 1 do
    Common.every geo cost.Saturn.Cost_model.heartbeat_period (fun () ->
        let floor = Common.dc_floor geo ~dc in
        for dst = 0 to n - 1 do
          if dst <> dc then begin
            Stats.Meta_bytes.record_heartbeat t.meta_bytes ~bytes:(vector_wire_bytes n);
            Common.ship geo ~src:dc ~dst ~size_bytes:(vector_wire_bytes n) (fun () ->
                let d = t.dcs.(dst) in
                if Sim.Time.compare floor d.vv.(dc) > 0 then begin
                  d.vv.(dc) <- floor;
                  probe_vec t ~dc:dst ~src:dc floor
                end)
          end
        done)
  done;
  (* the GSV advances only after every partition finishes its aggregation
     task: stabilization pays for its queueing under load *)
  for dc = 0 to n - 1 do
    Common.every geo cost.Saturn.Cost_model.stabilization_period (fun () ->
        let remaining = ref p.Common.partitions in
        for part = 0 to p.Common.partitions - 1 do
          Common.submit geo ~dc ~part ~cost_us:(Saturn.Cost_model.cure_stab_us cost ~n_dcs:n)
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
        for src = 0 to n - 1 do
          if src <> dc then d.gsv.(src) <- Sim.Time.max d.gsv.(src) d.vv.(src)
        done;
        (* the local entry is always stable: local updates are applied at
           commit time *)
        d.gsv.(dc) <- Sim.Time.max d.gsv.(dc) (Common.dc_floor geo ~dc);
        if Sim.Probe.active () then begin
          (* the stable snapshot is summarized by its oldest entry, matching
             the scalar GST of the GentleRain probe *)
          let oldest = ref Sim.Time.infinity in
          Array.iter (fun x -> oldest := Sim.Time.min !oldest x) d.gsv;
          Sim.Probe.emit
            ~at:(Sim.Engine.now (Common.engine geo))
            (Sim.Probe.Stab_round { dc; gst = Sim.Time.to_us !oldest })
        end;
        (* a remote update is visible once the GSV dominates its dependency
           vector on every entry but its own *)
        let visible, still =
          List.partition (fun pn -> dominated ~except:pn.meta.origin pn.meta.vc ~by:d.gsv) d.pending
        in
        d.pending <- still;
        List.iter
          (fun pn ->
            let part = Common.partition_of geo ~key:pn.key in
            if Sim.Probe.active () then
              Sim.Span.end_
                ~at:(Sim.Engine.now (Common.engine geo))
                Sim.Span.Sk_stab ~origin:pn.meta.origin
                ~seq:(Sim.Time.to_us pn.meta.vc.(pn.meta.origin))
                ~aux:part ~site:dc;
            let _ =
              Kvstore.Store.put_if_newer d.stores.(part) ~cmp:compare_meta ~key:pn.key pn.value pn.meta
            in
            (match t.apply_series.(dc) with
            | Some c -> Stats.Series.incr c ~now:(Sim.Engine.now (Common.engine geo))
            | None -> ());
            t.hooks.Common.on_visible ~dc ~key:pn.key ~origin_dc:pn.meta.origin
              ~origin_time:pn.origin_time ~value:pn.value)
          (List.sort (fun a b -> compare_meta a.meta b.meta) visible);
        let ready, waiting =
          List.partition (fun (dv, _) -> dominated ~except:dc dv ~by:d.gsv) d.waiters
        in
        d.waiters <- waiting;
        List.iter (fun (_, k) -> k ()) ready
  end

let cost t = (Common.params t.geo).Common.cost
let rmap t = (Common.params t.geo).Common.rmap

let client_dv t client =
  match Hashtbl.find_opt t.client_dv client with
  | Some dv -> dv
  | None ->
    let dv = Array.make (Common.n_dcs t.geo) Sim.Time.zero in
    Hashtbl.replace t.client_dv client dv;
    dv

let merge_dv dv vc = Array.iteri (fun j x -> if Sim.Time.compare x dv.(j) > 0 then dv.(j) <- x) vc

let attach t ~client ~home ~dc ~k =
  Common.round_trip t.geo ~home ~dc
    (fun reply ->
      Common.via_frontend t.geo ~dc (fun () ->
          let d = t.dcs.(dc) in
          let dv = Array.copy (client_dv t client) in
          if dominated ~except:dc dv ~by:d.gsv then reply ()
          else d.waiters <- (dv, reply) :: d.waiters))
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
          let cost_us = Saturn.Cost_model.cure_read_us (cost t) ~n_dcs:(Common.n_dcs t.geo) ~size_bytes:size in
          Common.submit t.geo ~dc ~part ~cost_us (fun () -> reply (Kvstore.Store.get store ~key))))
    ~k:(fun result ->
      match result with
      | Some (v, m) ->
        merge_dv (client_dv t client) m.vc;
        k (Some v)
      | None -> k None)

let update t ~client ~home ~dc ~key ~value ~k =
  let n = Common.n_dcs t.geo in
  Common.round_trip t.geo ~home ~dc
    (fun reply ->
      Common.via_frontend t.geo ~dc (fun () ->
          let part = Common.partition_of t.geo ~key in
          let cost_us =
            Saturn.Cost_model.cure_write_us (cost t) ~n_dcs:n ~size_bytes:value.Kvstore.Value.size_bytes
          in
          Common.submit t.geo ~dc ~part ~cost_us (fun () ->
              let dv = client_dv t client in
              let ts = Common.gen_ts t.geo ~dc ~part ~floor:dv.(dc) in
              let vc = Array.copy dv in
              vc.(dc) <- ts;
              let meta = { vc; origin = dc } in
              Kvstore.Store.put t.dcs.(dc).stores.(part) ~key value meta;
              let origin_time = Sim.Engine.now (Common.engine t.geo) in
              let size = value.Kvstore.Value.size_bytes + vector_wire_bytes n in
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
                          Saturn.Cost_model.cure_apply_us (cost t) ~n_dcs:n
                            ~size_bytes:value.Kvstore.Value.size_bytes
                        in
                        Common.submit t.geo ~dc:dst ~part:(Common.partition_of t.geo ~key)
                          ~cost_us:apply_cost (fun () ->
                            if Sim.Probe.active () then begin
                              let at = Sim.Engine.now (Common.engine t.geo) in
                              Sim.Span.end_ ~at Sim.Span.Sk_bulk ~origin:dc
                                ~seq:(Sim.Time.to_us ts) ~aux:part ~site:dc ~peer:dst;
                              (* GSV-domination hold *)
                              Sim.Span.begin_ ~at Sim.Span.Sk_stab ~origin:dc
                                ~seq:(Sim.Time.to_us ts) ~aux:part ~site:dst
                            end;
                            dd.pending <- { key; value; meta; origin_time } :: dd.pending))
                  end)
                (Kvstore.Replica_map.replicas (rmap t) ~key);
              Stats.Meta_bytes.record_op t.meta_bytes ~bytes:(vector_wire_bytes n) ~fanout:!fanout;
              reply meta)))
    ~k:(fun meta ->
      merge_dv (client_dv t client) meta.vc;
      k ())

let stop t = Common.stop t.geo

let store_value t ~dc ~key =
  let part = Common.partition_of t.geo ~key in
  Option.map fst (Kvstore.Store.get t.dcs.(dc).stores.(part) ~key)
