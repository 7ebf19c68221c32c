type meta = Sim.Time.t * int (* (write ts, origin dc): last-writer-wins order *)

let compare_meta (ta, da) (tb, db) =
  match Sim.Time.compare ta tb with 0 -> Int.compare da db | c -> c

type t = {
  geo : Common.t;
  hooks : Common.hooks;
  stores : (meta, int) Kvstore.Store.t array array; (* [dc].[partition] *)
  apply_series : Stats.Series.counter option array; (* per dc *)
  meta_bytes : Stats.Meta_bytes.t;
}

let create ?series ~meta engine p hooks =
  let geo = Common.create ?series engine p in
  let stores =
    Array.init (Common.n_dcs geo) (fun _ ->
        Array.init p.Common.partitions (fun _ -> Kvstore.Store.create ()))
  in
  let apply_series =
    Array.init (Common.n_dcs geo) (fun dc ->
        Option.map
          (fun sr -> Stats.Series.counter sr (Printf.sprintf "series.apply.dc%d" dc))
          series)
  in
  { geo; hooks; stores; apply_series; meta_bytes = meta }

let fabric t = t.geo
let cost t = (Common.params t.geo).Common.cost
let rmap t = (Common.params t.geo).Common.rmap

let attach t ~client:_ ~home ~dc ~k =
  Common.round_trip t.geo ~home ~dc (fun reply -> Common.via_frontend t.geo ~dc (fun () -> reply ())) ~k

let read t ~client:_ ~home ~dc ~key ~k =
  Common.round_trip t.geo ~home ~dc
    (fun reply ->
      Common.via_frontend t.geo ~dc (fun () ->
          let part = Common.partition_of t.geo ~key in
          let store = t.stores.(dc).(part) in
          let size =
            match Kvstore.Store.get store ~key with
            | Some (v, _) -> v.Kvstore.Value.size_bytes
            | None -> 0
          in
          let cost_us = Saturn.Cost_model.eventual_read_us (cost t) ~size_bytes:size in
          Common.submit t.geo ~dc ~part ~cost_us (fun () ->
              reply (Option.map fst (Kvstore.Store.get store ~key)))))
    ~k

let apply_remote t ~dc ~key ~value ~meta ~origin_time =
  let part = Common.partition_of t.geo ~key in
  let cost_us = Saturn.Cost_model.eventual_apply_us (cost t) ~size_bytes:value.Kvstore.Value.size_bytes in
  Common.submit t.geo ~dc ~part ~cost_us (fun () ->
      if Sim.Probe.active () then
        Sim.Span.end_
          ~at:(Sim.Engine.now (Common.engine t.geo))
          Sim.Span.Sk_bulk ~origin:(snd meta)
          ~seq:(Sim.Time.to_us (fst meta))
          ~aux:part ~site:(snd meta) ~peer:dc;
      let _ = Kvstore.Store.put_if_newer t.stores.(dc).(part) ~cmp:compare_meta ~key value meta in
      (match t.apply_series.(dc) with
      | Some c -> Stats.Series.incr c ~now:(Sim.Engine.now (Common.engine t.geo))
      | None -> ());
      t.hooks.Common.on_visible ~dc ~key ~origin_dc:(snd meta) ~origin_time ~value)

let update t ~client:_ ~home ~dc ~key ~value ~k =
  Common.round_trip t.geo ~home ~dc
    (fun reply ->
      Common.via_frontend t.geo ~dc (fun () ->
          let part = Common.partition_of t.geo ~key in
          let cost_us =
            Saturn.Cost_model.eventual_write_us (cost t) ~size_bytes:value.Kvstore.Value.size_bytes
          in
          Common.submit t.geo ~dc ~part ~cost_us (fun () ->
              let ts = Common.gen_ts t.geo ~dc ~part ~floor:Sim.Time.zero in
              let meta = (ts, dc) in
              Kvstore.Store.put t.stores.(dc).(part) ~key value meta;
              let origin_time = Sim.Engine.now (Common.engine t.geo) in
              (* the 16 bytes are the LWW (ts, origin) storage-version
                 header every protocol ships; they are versioning, not
                 causal metadata, so Meta_bytes records this op at 0 *)
              let size = value.Kvstore.Value.size_bytes + 16 in
              let fanout = ref 0 in
              List.iter
                (fun dst ->
                  if dst <> dc then begin
                    incr fanout;
                    if Sim.Probe.active () then
                      Sim.Span.begin_ ~at:origin_time Sim.Span.Sk_bulk ~origin:dc
                        ~seq:(Sim.Time.to_us ts) ~aux:part ~site:dc ~peer:dst;
                    Common.ship t.geo ~src:dc ~dst ~size_bytes:size (fun () ->
                        apply_remote t ~dc:dst ~key ~value ~meta ~origin_time)
                  end)
                (Kvstore.Replica_map.replicas (rmap t) ~key);
              Stats.Meta_bytes.record_op t.meta_bytes ~bytes:0 ~fanout:!fanout;
              reply ())))
    ~k

let stop t = Common.stop t.geo

let store_value t ~dc ~key =
  let part = Common.partition_of t.geo ~key in
  Option.map fst (Kvstore.Store.get t.stores.(dc).(part) ~key)
