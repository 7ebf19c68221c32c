(* Unit tests for the remote proxy: stream ordering, the concurrency
   optimization, staging, fallback, watermarks and attach waits. *)

let ulabel ~ts ~src ~key = Saturn.Label.update ~ts:(Sim.Time.of_ms ts) ~src_dc:src ~src_gear:0 ~key
let mlabel ~ts ~src ~dest = Saturn.Label.migration ~ts:(Sim.Time.of_ms ts) ~src_dc:src ~src_gear:0 ~dest_dc:dest

let payload ?(origin = 0.) ?(epoch = 0) label =
  { Saturn.Proxy.label; value = Kvstore.Value.make ~payload:label.Saturn.Label.ts ~size_bytes:2;
    origin_time = Sim.Time.of_sec origin; epoch }

(* proxy with instantaneous staging and an install log *)
type ctx = {
  engine : Sim.Engine.t;
  proxy : Saturn.Proxy.t;
  installed : int list ref; (* label ts of installed payloads, in order *)
  mutable stage_delay : Sim.Time.t;
}

let make_ctx ?(n_dcs = 3) ?(mode = Saturn.Proxy.Stream) () =
  let engine = Sim.Engine.create () in
  let installed = ref [] in
  let ctx_ref = ref None in
  let proxy =
    Saturn.Proxy.create engine ~dc:0 ~n_dcs
      ~stage_update:(fun _ ~k ->
        match !ctx_ref with
        | Some ctx -> Sim.Engine.schedule engine ~delay:ctx.stage_delay k
        | None -> k ())
      ~install_update:(fun p ->
        installed := Sim.Time.to_us p.Saturn.Proxy.label.Saturn.Label.ts :: !installed)
      ~mode ()
  in
  let ctx = { engine; proxy; installed; stage_delay = Sim.Time.zero } in
  ctx_ref := Some ctx;
  ctx

let ts_us ms = ms * 1000

let test_stream_applies_in_order () =
  let ctx = make_ctx () in
  let l1 = ulabel ~ts:10 ~src:1 ~key:1 and l2 = ulabel ~ts:20 ~src:1 ~key:2 in
  Saturn.Proxy.on_payload ctx.proxy (payload l1);
  Saturn.Proxy.on_payload ctx.proxy (payload l2);
  Saturn.Proxy.on_label ctx.proxy l1;
  Saturn.Proxy.on_label ctx.proxy l2;
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "in stream order" [ ts_us 10; ts_us 20 ] (List.rev !(ctx.installed));
  Alcotest.(check int) "applied counter" 2 (Saturn.Proxy.applied_updates ctx.proxy);
  Alcotest.(check bool) "label recorded applied" true (Saturn.Proxy.label_was_applied ctx.proxy l1)

let test_stream_blocks_on_missing_payload () =
  let ctx = make_ctx () in
  let l1 = ulabel ~ts:10 ~src:1 ~key:1 and l2 = ulabel ~ts:20 ~src:2 ~key:2 in
  Saturn.Proxy.on_label ctx.proxy l1;
  Saturn.Proxy.on_label ctx.proxy l2;
  Saturn.Proxy.on_payload ctx.proxy (payload l2);
  Sim.Engine.run ctx.engine;
  (* l2 (larger ts) must wait for l1 which has no payload yet *)
  Alcotest.(check (list int)) "dependent entry held" [] !(ctx.installed);
  Saturn.Proxy.on_payload ctx.proxy (payload l1);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "both released in order" [ ts_us 10; ts_us 20 ] (List.rev !(ctx.installed))

let test_concurrency_optimization () =
  (* Saturn delivers a LARGER ts first: the later-delivered smaller-ts label
     is concurrent and must not wait for the blocked head (§4.3) *)
  let ctx = make_ctx () in
  let head = ulabel ~ts:20 ~src:1 ~key:1 in
  let concurrent = ulabel ~ts:10 ~src:2 ~key:2 in
  Saturn.Proxy.on_label ctx.proxy head;
  (* head has no payload: blocked *)
  Saturn.Proxy.on_label ctx.proxy concurrent;
  Saturn.Proxy.on_payload ctx.proxy (payload concurrent);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "concurrent label applied around the blocked head"
    [ ts_us 10 ] (List.rev !(ctx.installed));
  Alcotest.(check int) "head still pending" 1 (Saturn.Proxy.pending_stream ctx.proxy)

let test_migration_label_fires_hook () =
  let ctx = make_ctx () in
  let hook_fired = ref None in
  Saturn.Proxy.on_migration_applicable ctx.proxy (fun l -> hook_fired := Some l);
  let waited = ref false in
  let m = mlabel ~ts:15 ~src:1 ~dest:0 in
  Saturn.Proxy.wait_for_label ctx.proxy m (fun () -> waited := true);
  Saturn.Proxy.on_label ctx.proxy m;
  Sim.Engine.run ctx.engine;
  Alcotest.(check bool) "hook fired" true (!hook_fired <> None);
  Alcotest.(check bool) "attach waiter released" true !waited;
  (* waiting after application returns immediately *)
  let late = ref false in
  Saturn.Proxy.wait_for_label ctx.proxy m (fun () -> late := true);
  Alcotest.(check bool) "late waiter immediate" true !late

let test_staging_consumes_time () =
  let ctx = make_ctx () in
  ctx.stage_delay <- Sim.Time.of_ms 5;
  let l = ulabel ~ts:10 ~src:1 ~key:1 in
  Saturn.Proxy.on_label ctx.proxy l;
  Saturn.Proxy.on_payload ctx.proxy (payload l);
  Sim.Engine.run ~until:(Sim.Time.of_ms 3) ctx.engine;
  Alcotest.(check (list int)) "not installed while staging" [] !(ctx.installed);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "installed after staging" [ ts_us 10 ] !(ctx.installed)

let test_fallback_ts_order () =
  let ctx = make_ctx ~mode:Saturn.Proxy.Fallback () in
  let l1 = ulabel ~ts:10 ~src:1 ~key:1 in
  let l2 = ulabel ~ts:20 ~src:2 ~key:2 in
  (* payloads arrive out of ts order; the bulk floor of each source reaches
     its own payload's ts, so l1 (ts 10 <= min floor 10) is already stable,
     while l2 (ts 20) must wait for src 1's promise to pass 20 *)
  Saturn.Proxy.on_payload ctx.proxy (payload l2);
  Saturn.Proxy.on_payload ctx.proxy (payload l1);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "only the globally-stable prefix" [ ts_us 10 ] !(ctx.installed);
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:1 (Sim.Time.of_ms 30);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "applied in timestamp order" [ ts_us 10; ts_us 20 ]
    (List.rev !(ctx.installed))

let test_fallback_partial_stability () =
  let ctx = make_ctx ~mode:Saturn.Proxy.Fallback () in
  let l1 = ulabel ~ts:10 ~src:1 ~key:1 in
  Saturn.Proxy.on_payload ctx.proxy (payload l1);
  (* only src 1 has promised past 10; src 2 is silent -> not stable *)
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:1 (Sim.Time.of_ms 30);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "held until all sources promise" [] !(ctx.installed);
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:2 (Sim.Time.of_ms 12);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "released" [ ts_us 10 ] !(ctx.installed)

let test_wait_for_ts_watermarks () =
  let ctx = make_ctx () in
  let released = ref false in
  Saturn.Proxy.wait_for_ts ctx.proxy (Sim.Time.of_ms 10) (fun () -> released := true);
  Alcotest.(check bool) "blocked initially" false !released;
  (* src1 applies an update with ts 15; src2 only heartbeats *)
  let l = ulabel ~ts:15 ~src:1 ~key:1 in
  Saturn.Proxy.on_payload ctx.proxy (payload l);
  Saturn.Proxy.on_label ctx.proxy l;
  Sim.Engine.run ctx.engine;
  Alcotest.(check bool) "still blocked on src2" false !released;
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:2 (Sim.Time.of_ms 11);
  Alcotest.(check bool) "released once every source passed" true !released

let test_heartbeat_floor_unsafe_with_pending () =
  (* a pending (unstaged) payload with a small ts must hold the effective
     watermark below a later heartbeat *)
  let ctx = make_ctx () in
  ctx.stage_delay <- Sim.Time.of_sec 1.;
  let l = ulabel ~ts:5 ~src:1 ~key:1 in
  Saturn.Proxy.on_payload ctx.proxy (payload l);
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:1 (Sim.Time.of_ms 50);
  let wm = Saturn.Proxy.effective_watermark ctx.proxy ~src:1 in
  Alcotest.(check bool) "watermark capped by pending payload" true
    (Sim.Time.compare wm (Sim.Time.of_ms 5) < 0)

let test_epoch_graceful_switch () =
  (* dc2 stays silent so the always-on timestamp sweep cannot install
     anything: the test isolates the label-buffering of the protocol *)
  let ctx = make_ctx ~n_dcs:3 () in
  Saturn.Proxy.start_graceful_switch ctx.proxy ~epoch:1;
  (* a C2 label arrives early and must be buffered *)
  let future = ulabel ~ts:40 ~src:1 ~key:9 in
  Saturn.Proxy.on_payload ctx.proxy (payload future);
  Saturn.Proxy.on_label_next ctx.proxy future;
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "buffered during switch" [] !(ctx.installed);
  Alcotest.(check bool) "switch not complete" false (Saturn.Proxy.switch_complete ctx.proxy);
  (* the other dcs' epoch-change labels flow through C1 *)
  Saturn.Proxy.on_label ctx.proxy (Saturn.Label.epoch_change ~ts:(Sim.Time.of_ms 30) ~src_dc:1 ~epoch:1);
  Saturn.Proxy.on_label ctx.proxy (Saturn.Label.epoch_change ~ts:(Sim.Time.of_ms 31) ~src_dc:2 ~epoch:1);
  Sim.Engine.run ctx.engine;
  Alcotest.(check bool) "switch complete" true (Saturn.Proxy.switch_complete ctx.proxy);
  Alcotest.(check (list int)) "buffered label drained" [ ts_us 40 ] !(ctx.installed);
  (* post-switch C2 labels flow directly *)
  let next = ulabel ~ts:50 ~src:1 ~key:10 in
  Saturn.Proxy.on_payload ctx.proxy (payload next);
  Saturn.Proxy.on_label_next ctx.proxy next;
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "direct after switch" [ ts_us 40; ts_us 50 ] (List.rev !(ctx.installed))

let test_epoch_forced_switch () =
  (* three datacenters so that a silent source (src 2) gates stability *)
  let ctx = make_ctx ~n_dcs:3 () in
  (* C1 broke: fall back to ts order, buffer C2, adopt once the old
     epoch's bulk traffic has drained *)
  let l1 = ulabel ~ts:10 ~src:1 ~key:1 in
  Saturn.Proxy.on_payload ctx.proxy (payload l1);
  Saturn.Proxy.start_forced_switch ctx.proxy ~epoch:1;
  Alcotest.(check bool) "fallback mode" true (Saturn.Proxy.mode ctx.proxy = Saturn.Proxy.Fallback);
  let c2 = ulabel ~ts:30 ~src:1 ~key:2 in
  Saturn.Proxy.on_payload ctx.proxy (payload ~epoch:1 c2);
  Saturn.Proxy.on_label_next ctx.proxy c2;
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "nothing before stability" [] !(ctx.installed);
  (* src 1's barrier is already crossed by c2's tag; src 2 stays silent, so
     an old-epoch heartbeat from it must NOT complete the switch *)
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:1 ~epoch:1 (Sim.Time.of_ms 35);
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:2 (Sim.Time.of_ms 35);
  Sim.Engine.run ctx.engine;
  Alcotest.(check bool) "old-epoch heartbeat does not complete" false
    (Saturn.Proxy.switch_complete ctx.proxy);
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:2 ~epoch:1 (Sim.Time.of_ms 36);
  Sim.Engine.run ctx.engine;
  Alcotest.(check bool) "adopted C2" true (Saturn.Proxy.switch_complete ctx.proxy);
  Alcotest.(check bool) "back in stream mode" true (Saturn.Proxy.mode ctx.proxy = Saturn.Proxy.Stream);
  Alcotest.(check (list int)) "ts-fallback applied both, no duplicates"
    [ ts_us 10; ts_us 30 ] (List.rev !(ctx.installed))

let test_no_duplicate_install_across_paths () =
  (* a label applied via fallback must not re-install when it later arrives
     in a stream *)
  let ctx = make_ctx ~mode:Saturn.Proxy.Fallback () in
  let l = ulabel ~ts:10 ~src:1 ~key:1 in
  Saturn.Proxy.on_payload ctx.proxy (payload l);
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:1 (Sim.Time.of_ms 20);
  Saturn.Proxy.on_heartbeat ctx.proxy ~src:2 (Sim.Time.of_ms 20);
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "applied once via fallback" [ ts_us 10 ] !(ctx.installed);
  Saturn.Proxy.set_mode ctx.proxy Saturn.Proxy.Stream;
  Saturn.Proxy.on_label ctx.proxy l;
  Sim.Engine.run ctx.engine;
  Alcotest.(check (list int)) "no re-install" [ ts_us 10 ] !(ctx.installed)

(* ---- differential test against the pre-slot proxy ------------------------- *)

(* The subset of the proxy interface the script drives, so the slot-based
   [Saturn.Proxy] and the reference [Proxy_ref] run the same code. *)
module type PROXY = sig
  type t

  val create :
    Sim.Engine.t ->
    dc:int ->
    n_dcs:int ->
    stage_update:(Saturn.Proxy.payload -> k:(unit -> unit) -> unit) ->
    install_update:(Saturn.Proxy.payload -> unit) ->
    ?registry:Stats.Registry.t ->
    ?mode:Saturn.Proxy.mode ->
    unit ->
    t

  val set_mode : t -> Saturn.Proxy.mode -> unit
  val on_label : t -> Saturn.Label.t -> unit
  val on_payload : t -> Saturn.Proxy.payload -> unit
  val on_heartbeat : t -> src:int -> ?epoch:int -> Sim.Time.t -> unit
  val wait_for_label : t -> Saturn.Label.t -> (unit -> unit) -> unit
  val wait_for_ts : t -> Sim.Time.t -> (unit -> unit) -> unit
  val on_migration_applicable : t -> (Saturn.Label.t -> unit) -> unit
  val on_label_next : t -> Saturn.Label.t -> unit
  val start_graceful_switch : t -> epoch:int -> unit
  val start_forced_switch : t -> epoch:int -> unit
  val on_switch_done : t -> (unit -> unit) -> unit
  val switch_complete : t -> bool
  val applied_updates : t -> int
  val pending_stream : t -> int
  val label_was_applied : t -> Saturn.Label.t -> bool
  val effective_watermark : t -> src:int -> Sim.Time.t
end

module Slot_proxy : PROXY = struct
  include Saturn.Proxy

  let create e ~dc ~n_dcs ~stage_update ~install_update ?registry ?mode () =
    create e ~dc ~n_dcs ~stage_update ~install_update ?registry ?mode ()
end

type p_action =
  | P_label of int  (** deliver pool label [i] through the current tree *)
  | P_label_next of int  (** …through the next tree *)
  | P_payload of int * int  (** pool label [i]'s payload, with an epoch tag *)
  | P_stage of int  (** complete the [j]-th outstanding staging (mod count) *)
  | P_heartbeat of int * int * int  (** src, ms, epoch *)
  | P_mode of Saturn.Proxy.mode
  | P_wait_label of int * int option
      (** attach on pool label [i]; the continuation re-enters with label [j] *)
  | P_wait_ts of int  (** ms *)
  | P_graceful
  | P_forced

type p_script = {
  pool : Saturn.Label.t array;
  inline_stage : bool;  (** stage_update calls its continuation at once *)
  actions : (int * p_action) list;  (** (µs, action) *)
}

let n_src = 4

let print_p_script s =
  let label i = Format.asprintf "%a" Saturn.Label.pp s.pool.(i) in
  let action = function
    | P_label i -> "label " ^ label i
    | P_label_next i -> "label-next " ^ label i
    | P_payload (i, e) -> Printf.sprintf "payload %s e%d" (label i) e
    | P_stage j -> Printf.sprintf "stage #%d" j
    | P_heartbeat (src, ms, e) -> Printf.sprintf "hb src%d %dms e%d" src ms e
    | P_mode Saturn.Proxy.Stream -> "mode stream"
    | P_mode Saturn.Proxy.Fallback -> "mode fallback"
    | P_wait_label (i, j) ->
      Printf.sprintf "wait %s%s" (label i)
        (match j with Some j -> " then label " ^ label j | None -> "")
    | P_wait_ts ms -> Printf.sprintf "wait-ts %dms" ms
    | P_graceful -> "graceful switch"
    | P_forced -> "forced switch"
  in
  Printf.sprintf "inline_stage=%b\n%s" s.inline_stage
    (String.concat "\n" (List.map (fun (at, a) -> Printf.sprintf "%dus: %s" at (action a)) s.actions))

let gen_p_script =
  QCheck.Gen.(
    let* n = int_range 4 24 in
    (* timestamps collide across sources and arrive in any order: the
       stream is full of the §4.3 inversions; src_gear keeps labels unique *)
    let* pool =
      array_size (return n)
        (let* src = int_range 1 (n_src - 1) and* ms = int_range 1 40 and* kind = int_bound 9 in
         return (src, ms, kind))
    in
    let pool =
      Array.mapi
        (fun i (src, ms, kind) ->
          let ts = Sim.Time.of_ms ms in
          if kind = 0 then Saturn.Label.migration ~ts ~src_dc:src ~src_gear:i ~dest_dc:(i mod 2)
          else if kind = 1 then Saturn.Label.epoch_change ~ts ~src_dc:src ~epoch:1
          else Saturn.Label.update ~ts ~src_dc:src ~src_gear:i ~key:i)
        pool
    in
    let idx = int_bound (n - 1) in
    let action =
      frequency
        [
          (6, map (fun i -> P_label i) idx);
          (1, map (fun i -> P_label_next i) idx);
          (6, map2 (fun i e -> P_payload (i, e)) idx (int_bound 2));
          (6, map (fun j -> P_stage j) (int_bound 8));
          ( 3,
            map3 (fun src ms e -> P_heartbeat (src, ms, e)) (int_range 1 (n_src - 1))
              (int_bound 50) (int_bound 2) );
          (1, map (fun m -> P_mode m) (oneofl [ Saturn.Proxy.Stream; Saturn.Proxy.Fallback ]));
          (2, map2 (fun i j -> P_wait_label (i, j)) idx (opt idx));
          (1, map (fun ms -> P_wait_ts ms) (int_bound 45));
        ]
    in
    let* steps = list_size (int_range 10 80) (pair (map (fun k -> k * 100) (int_bound 60)) action) in
    (* at most one graceful and one forced switch, in either order *)
    let at = map (fun k -> k * 100) (int_bound 60) in
    let* graceful = opt at and* forced = opt at in
    let switches =
      List.filter_map Fun.id
        [ Option.map (fun t -> (t, P_graceful)) graceful; Option.map (fun t -> (t, P_forced)) forced ]
    in
    let* inline_stage = bool in
    return { pool; inline_stage; actions = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (steps @ switches) })

(* Runs [s] against one proxy implementation under a keeping probe. The log
   records installs, waiter and hook firings and staging requests in order;
   the summary is the end state every observer can read. *)
let run_p_script (module P : PROXY) s =
  let e = Sim.Engine.create () in
  let log = Buffer.create 512 in
  let now () = Sim.Time.to_us (Sim.Engine.now e) in
  let lbl i = Format.asprintf "%a" Saturn.Label.pp s.pool.(i) in
  let staging = ref [] in (* outstanding continuations, oldest first *)
  let registry = Stats.Registry.create () in
  let p =
    P.create e ~dc:0 ~n_dcs:n_src
      ~stage_update:(fun p ~k ->
        Printf.bprintf log "stage %s@%d\n" (Format.asprintf "%a" Saturn.Label.pp p.Saturn.Proxy.label) (now ());
        if s.inline_stage then k () else staging := !staging @ [ k ])
      ~install_update:(fun p ->
        Printf.bprintf log "install %s e%d@%d\n"
          (Format.asprintf "%a" Saturn.Label.pp p.Saturn.Proxy.label)
          p.Saturn.Proxy.epoch (now ()))
      ~registry ()
  in
  P.on_migration_applicable p (fun l ->
      Printf.bprintf log "migration %s@%d\n" (Format.asprintf "%a" Saturn.Label.pp l) (now ()));
  P.on_switch_done p (fun () -> Printf.bprintf log "switch-done@%d\n" (now ()));
  let payload i epoch =
    let label = s.pool.(i) in
    { Saturn.Proxy.label; value = Kvstore.Value.make ~payload:i ~size_bytes:2;
      origin_time = Sim.Time.zero; epoch }
  in
  let complete j =
    match !staging with
    | [] -> ()
    | ks ->
      let j = j mod List.length ks in
      let k = List.nth ks j in
      staging := List.filteri (fun i _ -> i <> j) ks;
      k ()
  in
  List.iter
    (fun (at, action) ->
      Sim.Engine.schedule_at e (Sim.Time.of_us at) (fun () ->
          match action with
          | P_label i -> P.on_label p s.pool.(i)
          | P_label_next i -> P.on_label_next p s.pool.(i)
          | P_payload (i, epoch) ->
            if Saturn.Label.is_update s.pool.(i) then P.on_payload p (payload i epoch)
          | P_stage j -> complete j
          | P_heartbeat (src, ms, epoch) -> P.on_heartbeat p ~src ~epoch (Sim.Time.of_ms ms)
          | P_mode m -> P.set_mode p m
          | P_wait_label (i, j) ->
            P.wait_for_label p s.pool.(i) (fun () ->
                Printf.bprintf log "waiter %s@%d\n" (lbl i) (now ());
                Option.iter (fun j -> P.on_label p s.pool.(j)) j)
          | P_wait_ts ms ->
            P.wait_for_ts p (Sim.Time.of_ms ms) (fun () ->
                Printf.bprintf log "ts-waiter %dms@%d\n" ms (now ()))
          | P_graceful -> P.start_graceful_switch p ~epoch:1
          | P_forced -> P.start_forced_switch p ~epoch:2))
    s.actions;
  let probe = Sim.Probe.create () in
  Sim.Probe.with_probe probe (fun () ->
      Sim.Engine.run e;
      (* drain the staging left outstanding, oldest first *)
      while !staging <> [] do
        complete 0
      done);
  Printf.bprintf log "applied:%s\n"
    (String.concat ""
       (Array.to_list (Array.map (fun l -> if P.label_was_applied p l then "1" else "0") s.pool)));
  Printf.bprintf log "counters: applied=%d pending_stream=%d switch_complete=%b\n"
    (P.applied_updates p) (P.pending_stream p) (P.switch_complete p);
  for src = 1 to n_src - 1 do
    Printf.bprintf log "wm%d=%d " src (Sim.Time.to_us (P.effective_watermark p ~src))
  done;
  List.iter
    (fun (name, v) ->
      match v with
      | Stats.Registry.Counter n -> Printf.bprintf log "\n%s=%d" name n
      | _ -> ())
    (Stats.Registry.snapshot registry);
  (Buffer.contents log, List.map (fun (at, ev) -> Sim.Probe.to_json at ev) (Sim.Probe.events probe))

let prop_proxy_matches_reference =
  QCheck.Test.make ~name:"slot proxy matches the per-fact-table reference" ~count:500
    (QCheck.make ~print:print_p_script gen_p_script)
    (fun s ->
      let log, events = run_p_script (module Slot_proxy) s in
      let rlog, revents = run_p_script (module Proxy_ref) s in
      if log <> rlog then QCheck.Test.fail_reportf "log:\n%s\nreference:\n%s" log rlog;
      if events <> revents then QCheck.Test.fail_report "probe event streams differ";
      true)

let suite =
  [
    Alcotest.test_case "stream applies in order" `Quick test_stream_applies_in_order;
    Alcotest.test_case "stream blocks on missing payload" `Quick test_stream_blocks_on_missing_payload;
    Alcotest.test_case "concurrency optimization (§4.3)" `Quick test_concurrency_optimization;
    Alcotest.test_case "migration label applicability" `Quick test_migration_label_fires_hook;
    Alcotest.test_case "staging consumes server time" `Quick test_staging_consumes_time;
    Alcotest.test_case "fallback applies in ts order" `Quick test_fallback_ts_order;
    Alcotest.test_case "fallback needs every source stable" `Quick test_fallback_partial_stability;
    Alcotest.test_case "wait_for_ts watermark release" `Quick test_wait_for_ts_watermarks;
    Alcotest.test_case "heartbeats unsafe over pending payloads" `Quick test_heartbeat_floor_unsafe_with_pending;
    Alcotest.test_case "graceful epoch switch" `Quick test_epoch_graceful_switch;
    Alcotest.test_case "forced epoch switch" `Quick test_epoch_forced_switch;
    Alcotest.test_case "no duplicate installs across paths" `Quick test_no_duplicate_install_across_paths;
    QCheck_alcotest.to_alcotest prop_proxy_matches_reference;
  ]
