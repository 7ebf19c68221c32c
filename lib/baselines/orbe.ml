type meta = { ts : Sim.Time.t; origin : int } (* LWW order *)

let compare_meta a b =
  match Sim.Time.compare a.ts b.ts with 0 -> Int.compare a.origin b.origin | c -> c

(* dependency matrix: sparse map (dc, partition) -> required applied count *)
module Dm = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type pending = {
  key : int;
  value : Kvstore.Value.t;
  meta : meta;
  dm : int Dm.t;
  src_part : int;
  seq : int; (* sequence number within (origin, partition) *)
  origin_time : Sim.Time.t;
}

type dc_state = {
  stores : (meta, int) Kvstore.Store.t array;
  applied : int array array; (* [src dc].[partition] -> updates applied locally *)
  mutable pending : pending list;
}

type t = {
  geo : Common.t;
  hooks : Common.hooks;
  dcs : dc_state array;
  seq : int array array; (* [dc].[partition] -> updates issued *)
  contexts : (int, int Dm.t) Hashtbl.t; (* client -> dependency matrix *)
  apply_series : Stats.Series.counter option array; (* per dc *)
  meta_bytes : Stats.Meta_bytes.t;
  mutable entries_shipped : int;
  mutable updates_shipped : int;
}

let create ?series ~meta engine p hooks =
  let geo = Common.create ?series engine p in
  let n = Common.n_dcs geo in
  let dcs =
    Array.init n (fun _ ->
        {
          stores = Array.init p.Common.partitions (fun _ -> Kvstore.Store.create ());
          applied = Array.init n (fun _ -> Array.make p.Common.partitions 0);
          pending = [];
        })
  in
  let apply_series =
    Array.init n (fun dc ->
        Option.map
          (fun sr -> Stats.Series.counter sr (Printf.sprintf "series.apply.dc%d" dc))
          series)
  in
  let t =
    {
      geo;
      hooks;
      dcs;
      seq = Array.init n (fun _ -> Array.make p.Common.partitions 0);
      contexts = Hashtbl.create 256;
      apply_series;
      meta_bytes = meta;
      entries_shipped = 0;
      updates_shipped = 0;
    }
  in
  (match series with
  | Some sr ->
    for dc = 0 to n - 1 do
      Stats.Series.sample sr
        (Printf.sprintf "series.pending.dc%d" dc)
        (fun () -> float_of_int (List.length t.dcs.(dc).pending))
    done
  | None -> ());
  t

let cost t = (Common.params t.geo).Common.cost
let rmap t = (Common.params t.geo).Common.rmap

let context t client = Option.value ~default:Dm.empty (Hashtbl.find_opt t.contexts client)

let merge_entry dm key count =
  Dm.update key (function Some c when c >= count -> Some c | Some _ | None -> Some count) dm

let satisfied t ~dc dm =
  Dm.for_all (fun (j, part) need -> t.dcs.(dc).applied.(j).(part) >= need) dm

(* sequence numbers are per (origin, partition): updates from one partition
   must be applied in order for the applied counters to mean "prefix" *)
let in_order t ~dc pn = t.dcs.(dc).applied.(pn.meta.origin).(pn.src_part) = pn.seq - 1

let applicable t ~dc pn = in_order t ~dc pn && satisfied t ~dc pn.dm

let rec drain t ~dc =
  let d = t.dcs.(dc) in
  let ready, still = List.partition (fun pn -> applicable t ~dc pn) d.pending in
  d.pending <- still;
  if ready <> [] then begin
    List.iter (install t ~dc) ready;
    drain t ~dc
  end

and install t ~dc pn =
  let part = Common.partition_of t.geo ~key:pn.key in
  let _ =
    Kvstore.Store.put_if_newer t.dcs.(dc).stores.(part) ~cmp:compare_meta ~key:pn.key pn.value pn.meta
  in
  let applied = t.dcs.(dc).applied.(pn.meta.origin) in
  applied.(pn.src_part) <- pn.seq;
  (match t.apply_series.(dc) with
  | Some c -> Stats.Series.incr c ~now:(Sim.Engine.now (Common.engine t.geo))
  | None -> ());
  t.hooks.Common.on_visible ~dc ~key:pn.key ~origin_dc:pn.meta.origin ~origin_time:pn.origin_time
    ~value:pn.value

let apply_remote t ~dc pn =
  if applicable t ~dc pn then begin
    install t ~dc pn;
    drain t ~dc
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
          Common.submit t.geo ~dc ~part ~cost_us (fun () ->
              (* the read's dependency is summarized by the local applied
                 counters for the version's (origin, partition) *)
              let result = Kvstore.Store.get store ~key in
              let dep =
                Option.map
                  (fun (_, m) -> ((m.origin, part), t.dcs.(dc).applied.(m.origin).(part)))
                  result
              in
              reply (result, dep))))
    ~k:(fun (result, dep) ->
      (match dep with
      | Some ((j, part), count) when count > 0 ->
        Hashtbl.replace t.contexts client (merge_entry (context t client) (j, part) count)
      | Some _ | None -> ());
      k (Option.map fst result))

let update t ~client ~home ~dc ~key ~value ~k =
  Common.round_trip t.geo ~home ~dc
    (fun reply ->
      Common.via_frontend t.geo ~dc (fun () ->
          let part = Common.partition_of t.geo ~key in
          let dm = context t client in
          let entry_cost = Dm.cardinal dm * (cost t).Saturn.Cost_model.scalar_meta_us in
          let cost_us =
            Saturn.Cost_model.eventual_write_us (cost t) ~size_bytes:value.Kvstore.Value.size_bytes
            + entry_cost
          in
          Common.submit t.geo ~dc ~part ~cost_us (fun () ->
              let ts = Common.gen_ts t.geo ~dc ~part ~floor:Sim.Time.zero in
              let meta = { ts; origin = dc } in
              t.seq.(dc).(part) <- t.seq.(dc).(part) + 1;
              let seq = t.seq.(dc).(part) in
              Kvstore.Store.put t.dcs.(dc).stores.(part) ~key value meta;
              t.dcs.(dc).applied.(dc).(part) <- seq;
              let origin_time = Sim.Engine.now (Common.engine t.geo) in
              t.updates_shipped <- t.updates_shipped + 1;
              t.entries_shipped <- t.entries_shipped + Dm.cardinal dm;
              (* wire layout: 16-byte LWW version header (excluded from
                 causal accounting, as everywhere) + 16 bytes of sequencing
                 coordinates and matrix framing (src partition, sequence
                 number, entry count — the prefix-order machinery) + 12 per
                 (dc, partition) matrix entry *)
              let causal_bytes = 16 + (12 * Dm.cardinal dm) in
              let size = value.Kvstore.Value.size_bytes + 16 + causal_bytes in
              let fanout = ref 0 in
              List.iter
                (fun dst ->
                  if dst <> dc then begin
                    incr fanout;
                    Common.ship t.geo ~src:dc ~dst ~size_bytes:size (fun () ->
                        let apply_cost =
                          Saturn.Cost_model.eventual_apply_us (cost t)
                            ~size_bytes:value.Kvstore.Value.size_bytes
                          + entry_cost
                        in
                        Common.submit t.geo ~dc:dst ~part:(Common.partition_of t.geo ~key)
                          ~cost_us:apply_cost (fun () ->
                            apply_remote t ~dc:dst
                              { key; value; meta; dm; src_part = part; seq; origin_time }))
                  end)
                (Kvstore.Replica_map.replicas (rmap t) ~key);
              Stats.Meta_bytes.record_op t.meta_bytes ~bytes:causal_bytes ~fanout:!fanout;
              (* transitivity: the new version subsumes the whole context *)
              Hashtbl.replace t.contexts client (Dm.singleton (dc, part) seq);
              reply ())))
    ~k

let stop t = Common.stop t.geo

let store_value t ~dc ~key =
  let part = Common.partition_of t.geo ~key in
  Option.map fst (Kvstore.Store.get t.dcs.(dc).stores.(part) ~key)

let mean_matrix_entries t =
  if t.updates_shipped = 0 then 0.
  else float_of_int t.entries_shipped /. float_of_int t.updates_shipped

let blocked_updates t ~dc = List.length t.dcs.(dc).pending
