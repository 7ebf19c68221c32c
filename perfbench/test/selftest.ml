(* The benchmark composes a paper run itself so it can pass a registry,
   wrap the Api.t closures and add its own read-only engine events. None of
   that may change the simulation: for every system on the ec2-r90 setup at
   the default seed, the composition's in-window ops, throughput, mean
   visibility and mean extra visibility must equal [Scenario.run]'s bit for
   bit, and the counting check must come back clean (no stuck op, no bad
   read). *)

open Harness

let () =
  let setup = Perfbench.Wiring.setup ~read_ratio:0.9 ~seed:Scenario.default_setup.seed in
  let rmap = Perfbench.Wiring.replica_map setup in
  let config = Perfbench.Wiring.solve setup rmap in
  let failures = ref 0 in
  List.iter
    (fun system ->
      let expect = Scenario.run system setup in
      let d = Perfbench.Wiring.build setup rmap config system in
      let got = Perfbench.Wiring.analyse d (Perfbench.Wiring.run d) in
      let same =
        got.ops = expect.ops
        && Float.equal got.throughput expect.throughput
        && Float.equal got.vis_mean_ms expect.mean_visibility_ms
        && Float.equal got.extra_mean_ms expect.extra_visibility_ms
      in
      let clean = Perfbench.Wiring.stuck_ops d = 0 && d.check.bad_reads = 0 in
      Printf.printf "%-10s ops %d/%d  tput %.1f/%.1f  vis %.6f/%.6f  extra %.6f/%.6f  %s\n%!"
        d.name got.ops expect.ops got.throughput expect.throughput got.vis_mean_ms
        expect.mean_visibility_ms got.extra_mean_ms expect.extra_visibility_ms
        (if same && clean then "ok" else "MISMATCH");
      if not (same && clean) then incr failures)
    Scenario.all_systems;
  if !failures > 0 then exit 1
