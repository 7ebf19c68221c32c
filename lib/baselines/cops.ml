type version = Sim.Time.t * int (* (ts, origin dc) *)

let compare_version (ta, da) (tb, db) =
  match Sim.Time.compare ta tb with 0 -> Int.compare da db | c -> c

type pending = {
  key : int;
  value : Kvstore.Value.t;
  version : version;
  deps : (int * version) list;
  origin_time : Sim.Time.t;
}

type dc_state = {
  stores : (version, int) Kvstore.Store.t array;
  mutable pending : pending list;
}

type t = {
  geo : Common.t;
  hooks : Common.hooks;
  prune_on_write : bool;
  dcs : dc_state array;
  (* client context: explicit dependency set, one version per key *)
  contexts : (int, (int, version) Hashtbl.t) Hashtbl.t;
  apply_series : Stats.Series.counter option array; (* per dc *)
  meta_bytes : Stats.Meta_bytes.t;
  mutable deps_shipped : int;
  mutable updates_shipped : int;
  mutable max_deps : int;
}

let create ?series ~meta engine p hooks ~prune_on_write =
  let geo = Common.create ?series engine p in
  let dcs =
    Array.init (Common.n_dcs geo) (fun _ ->
        { stores = Array.init p.Common.partitions (fun _ -> Kvstore.Store.create ()); pending = [] })
  in
  let apply_series =
    Array.init (Common.n_dcs geo) (fun dc ->
        Option.map
          (fun sr -> Stats.Series.counter sr (Printf.sprintf "series.apply.dc%d" dc))
          series)
  in
  let t =
    { geo; hooks; prune_on_write; dcs; contexts = Hashtbl.create 256; apply_series;
      meta_bytes = meta; deps_shipped = 0; updates_shipped = 0; max_deps = 0 }
  in
  (match series with
  | Some sr ->
    for dc = 0 to Common.n_dcs geo - 1 do
      Stats.Series.sample sr
        (Printf.sprintf "series.pending.dc%d" dc)
        (fun () -> float_of_int (List.length t.dcs.(dc).pending))
    done
  | None -> ());
  t

let cost t = (Common.params t.geo).Common.cost
let rmap t = (Common.params t.geo).Common.rmap

let context t client =
  match Hashtbl.find_opt t.contexts client with
  | Some ctx -> ctx
  | None ->
    let ctx = Hashtbl.create 16 in
    Hashtbl.replace t.contexts client ctx;
    ctx

let add_dep ctx key version =
  match Hashtbl.find_opt ctx key with
  | Some existing when compare_version existing version >= 0 -> ()
  | Some _ | None -> Hashtbl.replace ctx key version

(* a dependency is satisfied when the local replica holds that version or a
   newer one; dependencies on keys this datacenter does not replicate are
   uncheckable (the paper's partial-replication problem) and are skipped *)
let dep_satisfied t ~dc (key, version) =
  if not (Kvstore.Replica_map.replicates (rmap t) ~dc ~key) then true
  else begin
    let part = Common.partition_of t.geo ~key in
    match Kvstore.Store.get t.dcs.(dc).stores.(part) ~key with
    | Some (_, v) -> compare_version v version >= 0
    | None -> false
  end

let rec drain_pending t ~dc =
  let d = t.dcs.(dc) in
  let ready, still =
    List.partition (fun pn -> List.for_all (dep_satisfied t ~dc) pn.deps) d.pending
  in
  d.pending <- still;
  if ready <> [] then begin
    List.iter (fun pn -> install t ~dc pn) ready;
    drain_pending t ~dc
  end

and install t ~dc pn =
  let part = Common.partition_of t.geo ~key:pn.key in
  let _ =
    Kvstore.Store.put_if_newer t.dcs.(dc).stores.(part) ~cmp:compare_version ~key:pn.key pn.value
      pn.version
  in
  (match t.apply_series.(dc) with
  | Some c -> Stats.Series.incr c ~now:(Sim.Engine.now (Common.engine t.geo))
  | None -> ());
  t.hooks.Common.on_visible ~dc ~key:pn.key ~origin_dc:(snd pn.version) ~origin_time:pn.origin_time
    ~value:pn.value

let apply_remote t ~dc pn =
  if List.for_all (dep_satisfied t ~dc) pn.deps then begin
    install t ~dc pn;
    drain_pending t ~dc
  end
  else t.dcs.(dc).pending <- pn :: t.dcs.(dc).pending

let attach t ~client:_ ~home ~dc ~k =
  Common.round_trip t.geo ~home ~dc (fun reply -> Common.via_frontend t.geo ~dc (fun () -> reply ())) ~k

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
          let cost_us = Saturn.Cost_model.eventual_read_us (cost t) ~size_bytes:size in
          Common.submit t.geo ~dc ~part ~cost_us (fun () -> reply (Kvstore.Store.get store ~key))))
    ~k:(fun result ->
      match result with
      | Some (v, version) ->
        add_dep (context t client) key version;
        k (Some v)
      | None -> k None)

let update t ~client ~home ~dc ~key ~value ~k =
  Common.round_trip t.geo ~home ~dc
    (fun reply ->
      Common.via_frontend t.geo ~dc (fun () ->
          let ctx = context t client in
          let deps = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) ctx []) in
          let part = Common.partition_of t.geo ~key in
          let dep_cost = List.length deps * (cost t).Saturn.Cost_model.scalar_meta_us in
          let cost_us =
            Saturn.Cost_model.eventual_write_us (cost t) ~size_bytes:value.Kvstore.Value.size_bytes
            + dep_cost
          in
          Common.submit t.geo ~dc ~part ~cost_us (fun () ->
              let ts = Common.gen_ts t.geo ~dc ~part ~floor:Sim.Time.zero in
              let version = (ts, dc) in
              Kvstore.Store.put t.dcs.(dc).stores.(part) ~key value version;
              let origin_time = Sim.Engine.now (Common.engine t.geo) in
              let n_deps = List.length deps in
              t.deps_shipped <- t.deps_shipped + n_deps;
              t.updates_shipped <- t.updates_shipped + 1;
              t.max_deps <- max t.max_deps n_deps;
              (* 16 bytes of version header (excluded from causal-metadata
                 accounting, as everywhere) + 16 per (key, version) dep *)
              let size = value.Kvstore.Value.size_bytes + (16 * (1 + n_deps)) in
              let fanout = ref 0 in
              List.iter
                (fun dst ->
                  if dst <> dc then begin
                    incr fanout;
                    Common.ship t.geo ~src:dc ~dst ~size_bytes:size (fun () ->
                        let apply_cost =
                          Saturn.Cost_model.eventual_apply_us (cost t)
                            ~size_bytes:value.Kvstore.Value.size_bytes
                          + dep_cost
                        in
                        Common.submit t.geo ~dc:dst ~part:(Common.partition_of t.geo ~key)
                          ~cost_us:apply_cost (fun () ->
                            apply_remote t ~dc:dst { key; value; version; deps; origin_time }))
                  end)
                (Kvstore.Replica_map.replicas (rmap t) ~key);
              Stats.Meta_bytes.record_op t.meta_bytes ~bytes:(16 * n_deps) ~fanout:!fanout;
              (* transitivity-based pruning: sound only under full
                 replication *)
              if t.prune_on_write then Hashtbl.reset ctx;
              add_dep ctx key version;
              reply version)))
    ~k:(fun version ->
      add_dep (context t client) key version;
      k ())

let stop t = Common.stop t.geo

let store_value t ~dc ~key =
  let part = Common.partition_of t.geo ~key in
  Option.map fst (Kvstore.Store.get t.dcs.(dc).stores.(part) ~key)

let mean_dependency_size t =
  if t.updates_shipped = 0 then 0.
  else float_of_int t.deps_shipped /. float_of_int t.updates_shipped

let max_dependency_size t = t.max_deps
