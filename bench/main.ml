(** The benchmark harness: regenerates every table and figure of the paper
    (Table 1, Figures 1-3), the ablations, the §5 mitigation experiment, and
    the bechamel microbenchmarks.

    Usage:
      bench/main.exe                  run everything (full parameters)
      bench/main.exe --quick          run everything with small parameters
      bench/main.exe fig1 [--quick]   one experiment (table1 | fig1 | fig2 |
                                      fig3 | ablation | mitigation | micro)
      bench/main.exe micro fig1 --quick --json
                                      machine-readable smoke run: writes
                                      BENCH_core.json with the micro results
                                      and a trace-on vs trace-off DepFastRaft
                                      throughput comparison instead of the
                                      full fig1 sweep *)

let params quick = if quick then Harness.Params.quick else Harness.Params.full

(* --json collectors: single-writer CLI accumulators. Atomic rather than
   plain refs so the domains pass certifies them shared-safe outright —
   the harness now spawns domains (parallel explorer, shard pool), so
   "never shared" is no longer a structural guarantee worth a pragma. *)
let micro_results : Micro.result list Atomic.t = Atomic.make []
let trace_cmp : (float * float) option Atomic.t = Atomic.make None
type macro_row = {
  mr_tput : float;
  mr_p50 : float;
  mr_p99 : float;
  mr_cpu : float;
  mr_mean_batch : float;  (* committed ops per leader fsync *)
  mr_shed_rate : float;
  mr_fsyncs_per_op : float;
}

let macro_stats : macro_row option Atomic.t = Atomic.make None
let macro_nobatch_stats : macro_row option Atomic.t = Atomic.make None
let check_stats : (int * int * float * int) option Atomic.t = Atomic.make None
(* schedules, pruned, wall ms, findings *)
let analysis_stats : (string * (int * float * int * (string * int) list)) list Atomic.t =
  Atomic.make []
(* per probe: files, wall ms, findings, probe-specific counts *)
let nofeed_stats : (int * int) option Atomic.t = Atomic.make None
(* schedules, pruned with the DPOR independence feed off *)
let check_par_stats : (int * int * float) list Atomic.t = Atomic.make []
(* (jobs, schedules, wall ms) per explorer domain count *)
let shard_stats : (int * float * int * float * float) list Atomic.t = Atomic.make []
(* (jobs, wall ms, total ops, virtual ops/s, p99 ms) per shard-pool domain count *)

(* static-analysis probes: wall time of a group of passes from the pass
   list over the library sources, project load included, as the group
   would run alone — certificates feed the explorer's cross-checks, so
   every pass must stay cheap enough to run on every build. [lint] is
   the per-file lint plus the whole-project interprocedural pass. *)
let analysis_probes =
  let count p certs = List.length (List.filter p certs) in
  let flagged c = c.Analysis.Growth.c_verdict = Analysis.Growth.Flagged in
  let kind k c = c.Analysis.Growth.c_kind = k in
  [
    ("lint", [ "source-lint"; "interproc" ], fun _ -> []);
    ("bounds", [ "bounds" ], fun certs -> [ ("certificates", List.length certs) ]);
    ( "domains",
      [ "domains" ],
      fun certs -> [ ("cells", List.length certs); ("unsafe", count flagged certs) ] );
    ( "spg",
      [ "spg" ],
      fun certs ->
        [ ("wait_sites", count (kind "wait") certs); ("edges", count (kind "propagation") certs) ] );
  ]

let run_analysis_json (probe, passes, counts) =
  match List.find_opt Sys.file_exists [ "../lib"; "lib" ] with
  | None -> Printf.printf "%s probe: sources not available, skipped\n%!" probe
  | Some root ->
    let files = Analysis.Project.source_files [ root ] in
    let t0 = Unix.gettimeofday () in
    let shared = Analysis.Pass.share (Analysis.Project.load_files files) in
    let outs =
      List.filter_map
        (fun p ->
          if List.mem p.Analysis.Pass.name passes then Some (p.Analysis.Pass.run shared) else None)
        Analysis.Pass.all
    in
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let findings = List.length (List.concat_map (fun o -> o.Analysis.Pass.findings) outs) in
    let counts = counts (List.concat_map (fun o -> o.Analysis.Pass.certs) outs) in
    Atomic.set analysis_stats
      ((probe, (List.length files, ms, findings, counts)) :: Atomic.get analysis_stats);
    Printf.printf "%s probe: %d file(s), %d finding(s)%s in %.1f ms\n%!" probe (List.length files)
      findings
      (String.concat "" (List.map (fun (k, v) -> Printf.sprintf ", %d %s" v k) counts))
      ms

(* trace overhead probe: the same DepFastRaft quick cell with the wait-trace
   ring disabled and enabled; tracing must cost well under 10% throughput *)
let run_fig1_json quick =
  let params = params quick in
  let tput trace =
    let cell =
      Harness.Runner.run_cell ~trace ~params ~system:Harness.Runner.Depfast_raft ~n:3
        ~slow_count:1 ~fault:None ()
    in
    Workload.Metrics.throughput cell.Harness.Runner.metrics
  in
  let off = tput false in
  let on = tput true in
  Atomic.set trace_cmp @@ Some (off, on);
  Printf.printf "fig1 trace probe: trace-off %.0f ops/s, trace-on %.0f ops/s (%.1f%%)\n%!"
    off on
    (100.0 *. on /. off)

(* schedule-space probe: the gating scenario registry under its default
   per-scenario budgets, certificates included when the sources are
   reachable — the explored-schedule count and wall time the checker is
   accountable to (DESIGN.md §"Schedule-space checking") *)
let run_check_json () =
  (* start from a compacted heap so the probe measures the checker, not
     the GC debt of whatever ran before it (the smoke rule also orders
     this probe before the bechamel run, whose measurement loops leave
     the allocator in a state that inflates re-execution wall time) *)
  Gc.compact ();
  let certs =
    match List.find_opt Sys.file_exists [ "../lib"; "lib" ] with
    | None -> None
    | Some root -> Some (Check.Certificate.build ~roots:[ root ] ())
  in
  let t0 = Unix.gettimeofday () in
  let results =
    List.map
      (fun (sc : Check.Scenario.t) ->
        let budget =
          {
            Check.Explore.default_budget with
            Check.Explore.max_schedules = sc.Check.Scenario.default_schedules;
          }
        in
        Check.Explore.explore ~budget ?certs sc)
      Check.Registry.gating_scenarios
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let schedules = List.fold_left (fun a r -> a + r.Check.Explore.schedules) 0 results in
  let pruned = List.fold_left (fun a r -> a + r.Check.Explore.pruned) 0 results in
  let findings =
    List.fold_left (fun a r -> a + List.length r.Check.Explore.findings) 0 results
  in
  Atomic.set check_stats @@ Some (schedules, pruned, ms, findings);
  Printf.printf
    "check probe: %d schedule(s) explored, %d pruned, %d finding(s) in %.0f ms\n%!"
    schedules pruned findings ms;
  (* the same registry with no certificates, hence no depfast-domains
     independence feed: the schedule-count delta is the feed's rent *)
  let nofeed =
    List.map
      (fun (sc : Check.Scenario.t) ->
        let budget =
          {
            Check.Explore.default_budget with
            Check.Explore.max_schedules = sc.Check.Scenario.default_schedules;
          }
        in
        Check.Explore.explore ~budget sc)
      Check.Registry.gating_scenarios
  in
  let s0 = List.fold_left (fun a r -> a + r.Check.Explore.schedules) 0 nofeed in
  let p0 = List.fold_left (fun a r -> a + r.Check.Explore.pruned) 0 nofeed in
  Atomic.set nofeed_stats @@ Some (s0, p0);
  Printf.printf "check probe (feed off): %d schedule(s) explored, %d pruned\n%!" s0 p0

(* parallel-explorer probe: the same gating registry at 1, 2 and 4
   domains. Determinism makes the runs comparable schedule-for-schedule
   (identical totals by construction); the wall-clock ratio is bounded
   by the cores the host actually exposes, so the row records the
   measured speedup, whatever it is, next to the schedule count. *)
let run_check_par_json () =
  Gc.compact ();
  let certs =
    match List.find_opt Sys.file_exists [ "../lib"; "lib" ] with
    | None -> None
    | Some root -> Some (Check.Certificate.build ~roots:[ root ] ())
  in
  let one jobs =
    let t0 = Unix.gettimeofday () in
    let results =
      List.map
        (fun (sc : Check.Scenario.t) ->
          let budget =
            {
              Check.Explore.default_budget with
              Check.Explore.max_schedules = sc.Check.Scenario.default_schedules;
            }
          in
          Check.Explore.explore ~budget ?certs ~jobs sc)
        Check.Registry.gating_scenarios
    in
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let schedules = List.fold_left (fun a r -> a + r.Check.Explore.schedules) 0 results in
    (jobs, schedules, ms)
  in
  let rows = List.map one [ 1; 2; 4 ] in
  Atomic.set check_par_stats rows;
  let base = match rows with (_, _, ms) :: _ -> ms | [] -> 0.0 in
  List.iter
    (fun (jobs, schedules, ms) ->
      Printf.printf
        "check-par probe: jobs=%d, %d schedule(s) in %.0f ms (speedup %.2fx)\n%!" jobs
        schedules ms
        (if ms > 0.0 then base /. ms else 0.0))
    rows

(* shard-pool probe: four per-domain Raft shards under closed-loop write
   load with 10% cross-shard traffic, on one domain and on four. The two
   runs report identical per-shard stats (the barrier-quantum merge is
   deterministic in the domain count); the wall-clock ratio records what
   the host's cores deliver. *)
let run_shard_json quick =
  let quanta = if quick then 12 else 40 in
  let one jobs =
    let t0 = Unix.gettimeofday () in
    let r = Raft.Shardpool.run ~shards:4 ~jobs ~quanta () in
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let ops = Raft.Shardpool.total_ops r in
    let tput = float_of_int ops /. Sim.Time.to_sec_f r.Raft.Shardpool.r_virtual in
    let p99 = Sim.Time.to_ms_f (Sim.Hist.p99 (Raft.Shardpool.merged_latency r)) in
    (jobs, ms, ops, tput, p99)
  in
  let rows = List.map one [ 1; 4 ] in
  Atomic.set shard_stats rows;
  let base = match rows with (_, ms, _, _, _) :: _ -> ms | [] -> 0.0 in
  List.iter
    (fun (jobs, ms, ops, tput, p99) ->
      Printf.printf
        "shard probe: jobs=%d, %d op(s), %.0f virtual ops/s, p99 %.2f ms, %.0f ms wall \
         (speedup %.2fx)\n\
         %!"
        jobs ops tput p99 ms
        (if ms > 0.0 then base /. ms else 0.0))
    rows

(* macro throughput probe: the fig1-shaped healthy cell (3-replica
   DepFastRaft under the closed-loop YCSB-style write workload, no fault
   injected) — the replication-path number the zero-copy/pooled/pipelined
   overhaul and now the group-commit batcher are accountable to. Runs the
   cell twice: with the adaptive batcher (default config) and with batching
   forced off ([max_batch = 1]), so the JSON records the amortization
   (mean batch size, fsyncs per op) next to its throughput effect. *)
let run_macro_json quick =
  let params = params quick in
  let row ~cfg =
    let cell =
      Harness.Runner.run_cell ~cfg ~trace:false ~params ~system:Harness.Runner.Depfast_raft
        ~n:3 ~slow_count:1 ~fault:None ()
    in
    let m = cell.Harness.Runner.metrics in
    {
      mr_tput = Workload.Metrics.throughput m;
      mr_p50 = Workload.Metrics.p50_latency_ms m;
      mr_p99 = Workload.Metrics.p99_latency_ms m;
      mr_cpu = m.Workload.Metrics.leader_utilization;
      mr_mean_batch =
        (if m.Workload.Metrics.leader_fsyncs = 0 then 0.0
         else
           float_of_int m.Workload.Metrics.completed
           /. float_of_int m.Workload.Metrics.leader_fsyncs);
      mr_shed_rate = Workload.Metrics.shed_rate m;
      mr_fsyncs_per_op = Workload.Metrics.fsyncs_per_op m;
    }
  in
  let pr label r =
    Printf.printf
      "macro probe (%s): %.0f ops/s, p50 %.2f ms, p99 %.2f ms, leader CPU %.0f%%, mean \
       batch %.1f, %.2f fsyncs/op, shed %.1f%%\n\
       %!"
      label r.mr_tput r.mr_p50 r.mr_p99 (100.0 *. r.mr_cpu) r.mr_mean_batch
      r.mr_fsyncs_per_op (100.0 *. r.mr_shed_rate)
  in
  let on = row ~cfg:Raft.Config.default in
  Atomic.set macro_stats @@ Some on;
  pr "batching" on;
  let off = row ~cfg:{ Raft.Config.default with Raft.Config.max_batch = 1 } in
  Atomic.set macro_nobatch_stats @@ Some off;
  pr "no batching" off

let run_experiment ~json quick = function
  | "table1" -> Harness.Table1.print ()
  | "fig1" -> if json then run_fig1_json quick else Harness.Fig1.print ~params:(params quick) ()
  | "fig2" -> Harness.Fig2.print ()
  | "fig3" -> Harness.Fig3.print ~params:(params quick) ()
  | "ablation" -> Harness.Ablation.print ~params:(params quick) ()
  | "mitigation" -> Harness.Mitigation.print ~params:(params quick) ()
  | "micro" ->
    (* bechamel's stabilization sets Gc.max_overhead (compaction off)
       and never restores it; put the parameters back afterwards *)
    let gc = Gc.get () in
    let rs = Micro.results () in
    Gc.set gc;
    if json then Atomic.set micro_results @@ rs;
    Micro.print rs
  | "macro" -> run_macro_json quick
  | "check" -> run_check_json ()
  | "check_par" -> run_check_par_json ()
  | "shard" -> run_shard_json quick
  | other -> (
    match List.find_opt (fun (p, _, _) -> p = other) analysis_probes with
    | Some probe -> run_analysis_json probe
    | None ->
      Printf.eprintf
        "unknown experiment %S (expected \
         table1|fig1|fig2|fig3|ablation|mitigation|micro|lint|bounds|domains|spg|macro|check|check_par|shard)\n"
        other;
      exit 2)

let all =
  [
    "table1"; "fig1"; "fig2"; "fig3"; "ablation"; "mitigation"; "micro"; "lint";
    "bounds"; "domains"; "spg"; "macro"; "check"; "check_par"; "shard";
  ]

(* hand-rolled JSON: two flat sections, no escaping needed beyond labels
   (which are ASCII without quotes/backslashes) *)
let write_json path =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"micro\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"label\": %S, \"ns_per_run\": %.2f, \
            \"minor_words_per_run\": %.2f}%s\n"
           r.Micro.key r.Micro.label r.Micro.ns_per_run r.Micro.minor_words_per_run
           (if i = List.length (Atomic.get micro_results) - 1 then "" else ",")))
    (Atomic.get micro_results);
  Buffer.add_string buf "  ]";
  (match (Atomic.get trace_cmp) with
  | Some (off, on) ->
    Buffer.add_string buf
      (Printf.sprintf
         ",\n  \"fig1_trace\": {\"trace_off_tput\": %.2f, \"trace_on_tput\": %.2f, \
          \"ratio\": %.4f}"
         off on (on /. off))
  | None -> ());
  let macro_fields r =
    Printf.sprintf
      "{\"tput_ops_s\": %.2f, \"p50_ms\": %.2f, \"p99_ms\": %.2f, \"leader_cpu\": \
       %.4f, \"mean_batch\": %.2f, \"fsyncs_per_op\": %.4f, \"shed_rate\": %.4f}"
      r.mr_tput r.mr_p50 r.mr_p99 r.mr_cpu r.mr_mean_batch r.mr_fsyncs_per_op
      r.mr_shed_rate
  in
  (match (Atomic.get macro_stats) with
  | Some r -> Buffer.add_string buf (",\n  \"fig1_macro\": " ^ macro_fields r)
  | None -> ());
  (match (Atomic.get macro_nobatch_stats) with
  | Some r -> Buffer.add_string buf (",\n  \"fig1_macro_nobatch\": " ^ macro_fields r)
  | None -> ());
  List.iter
    (fun (probe, _, _) ->
      match List.assoc_opt probe (Atomic.get analysis_stats) with
      | Some (files, ms, findings, counts) ->
        Buffer.add_string buf
          (Printf.sprintf ",\n  \"%s\": {\"files\": %d, \"wall_ms\": %.2f, \"findings\": %d%s}"
             probe files ms findings
             (String.concat ""
                (List.map (fun (k, v) -> Printf.sprintf ", \"%s\": %d" k v) counts)))
      | None -> ())
    analysis_probes;
  (match (Atomic.get check_stats) with
  | Some (schedules, pruned, ms, findings) ->
    Buffer.add_string buf
      (Printf.sprintf
         ",\n  \"check_smoke\": {\"schedules\": %d, \"pruned\": %d, \"wall_ms\": %.2f, \
          \"findings\": %d%s}"
         schedules pruned ms findings
         (match (Atomic.get nofeed_stats) with
         | Some (s0, p0) ->
           Printf.sprintf ", \"schedules_nofeed\": %d, \"pruned_nofeed\": %d" s0 p0
         | None -> ""))
  | None -> ());
  (match Atomic.get check_par_stats with
  | [] -> ()
  | rows ->
    let base = match rows with (_, _, ms) :: _ -> ms | [] -> 0.0 in
    List.iter
      (fun (jobs, schedules, ms) ->
        Buffer.add_string buf
          (Printf.sprintf
             ",\n  \"check_par_%d\": {\"jobs\": %d, \"schedules\": %d, \"wall_ms\": \
              %.2f, \"speedup\": %.3f}"
             jobs jobs schedules ms
             (if ms > 0.0 then base /. ms else 0.0)))
      rows);
  (match Atomic.get shard_stats with
  | [] -> ()
  | rows ->
    let base = match rows with (_, ms, _, _, _) :: _ -> ms | [] -> 0.0 in
    List.iter
      (fun (jobs, ms, ops, tput, p99) ->
        Buffer.add_string buf
          (Printf.sprintf
             ",\n  \"fig1_macro_domains_%d\": {\"jobs\": %d, \"wall_ms\": %.2f, \
              \"ops\": %d, \"tput_ops_s\": %.2f, \"p99_ms\": %.2f, \"speedup\": %.3f}"
             jobs jobs ms ops tput p99
             (if ms > 0.0 then base /. ms else 0.0)))
      rows);
  Buffer.add_string buf "\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let () =
  let quick = ref false in
  let json = ref false in
  let names = ref [] in
  let spec =
    [
      ("--quick", Arg.Set quick, " use small parameters (CI-friendly)");
      ("--json", Arg.Set json, " write BENCH_core.json (micro + fig1 trace probe)");
    ]
  in
  Arg.parse spec (fun a -> names := a :: !names) "bench/main.exe [--quick] [--json] [experiment...]";
  let names = if !names = [] then all else List.rev !names in
  List.iter (run_experiment ~json:!json !quick) names;
  if !json then write_json "BENCH_core.json"
