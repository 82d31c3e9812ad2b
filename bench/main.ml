(** The benchmark harness: regenerates every table and figure of the paper
    (Table 1, Figures 1-3), the ablations, the §5 mitigation experiment,
    the bechamel microbenchmarks, and the tool-cost probes (static
    analysis passes, schedule-space checker, parallel explorer).

    Usage:
      bench/main.exe                  run every experiment (full parameters)
      bench/main.exe --quick          run every experiment, small parameters
      bench/main.exe fig1 [--quick]   run the named experiments only (see
                                      [experiments] below for the names)
      bench/main.exe check micro fig1 macro --quick --json
                                      machine-readable run: each experiment
                                      contributes its JSON sections, written
                                      to BENCH_core.json; under --json, fig1
                                      is the trace-on vs trace-off throughput
                                      probe instead of the full sweep *)

let params quick = if quick then Harness.Params.quick else Harness.Params.full

(* JSON rendering: an object of pre-formatted values. Keys and labels are
   ASCII without quotes or backslashes, so %S needs no JSON escaping. *)
let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let num digits x = Printf.sprintf "%.*f" digits x
let speedup ~base ms = if ms > 0.0 then base /. ms else 0.0
let sources_root () = List.find_opt Sys.file_exists [ "../lib"; "lib" ]

let micro () =
  (* bechamel's stabilization sets Gc.max_overhead (compaction off)
     and never restores it; put the parameters back afterwards *)
  let gc = Gc.get () in
  let rs = Micro.results () in
  Gc.set gc;
  Micro.print rs;
  let row r =
    obj
      [
        ("name", Printf.sprintf "%S" r.Micro.key);
        ("label", Printf.sprintf "%S" r.Micro.label);
        ("ns_per_run", num 2 r.Micro.ns_per_run);
        ("minor_words_per_run", num 2 r.Micro.minor_words_per_run);
      ]
  in
  [ ("micro", "[\n    " ^ String.concat ",\n    " (List.map row rs) ^ "\n  ]") ]

(* static-analysis probes: wall time of a group of passes from the pass
   list over the library sources, project load included, as the group
   would run alone — certificates feed the explorer's cross-checks, so
   every pass must stay cheap enough to run on every build. [lint] is
   the per-file lint plus the whole-project interprocedural pass. *)
let analysis probe passes counts =
  match sources_root () with
  | None ->
    Printf.printf "%s probe: sources not available, skipped\n%!" probe;
    []
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
    Printf.printf "%s probe: %d file(s), %d finding(s)%s in %.1f ms\n%!" probe (List.length files)
      findings
      (String.concat "" (List.map (fun (k, v) -> Printf.sprintf ", %d %s" v k) counts))
      ms;
    [
      ( probe,
        obj
          ([
             ("files", string_of_int (List.length files));
             ("wall_ms", num 2 ms);
             ("findings", string_of_int findings);
           ]
          @ List.map (fun (k, v) -> (k, string_of_int v)) counts) );
    ]

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

(* trace overhead probe: the same DepFastRaft quick cell with the wait-trace
   ring disabled and enabled; tracing must cost well under 10% throughput *)
let fig1_trace quick =
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
  Printf.printf "fig1 trace probe: trace-off %.0f ops/s, trace-on %.0f ops/s (%.1f%%)\n%!"
    off on
    (100.0 *. on /. off);
  [
    ( "fig1_trace",
      obj [ ("trace_off_tput", num 2 off); ("trace_on_tput", num 2 on); ("ratio", num 4 (on /. off)) ]
    );
  ]

(* the gating scenario registry under its default per-scenario budgets:
   total schedules, total pruned, total findings, wall ms *)
let explore_gating ?certs ?jobs () =
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
        Check.Explore.explore ~budget ?certs ?jobs sc)
      Check.Registry.gating_scenarios
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  ( sum (fun r -> r.Check.Explore.schedules),
    sum (fun r -> r.Check.Explore.pruned),
    sum (fun r -> List.length r.Check.Explore.findings),
    ms )

let gating_certs () =
  (* start from a compacted heap so the probe measures the checker, not
     the GC debt of whatever ran before it (the smoke rule also orders
     this probe before the bechamel run, whose measurement loops leave
     the allocator in a state that inflates re-execution wall time) *)
  Gc.compact ();
  Option.map (fun root -> Check.Certificate.build ~roots:[ root ] ()) (sources_root ())

(* schedule-space probe: the gating registry, certificates included when
   the sources are reachable — the explored-schedule count and wall time
   the checker is accountable to (DESIGN.md §"Schedule-space checking") *)
let check () =
  let certs = gating_certs () in
  let schedules, pruned, findings, ms = explore_gating ?certs () in
  Printf.printf
    "check probe: %d schedule(s) explored, %d pruned, %d finding(s) in %.0f ms\n%!"
    schedules pruned findings ms;
  (* the same registry with no certificates, hence no depfast-domains
     independence feed: the schedule-count delta is the feed's rent *)
  let s0, p0, _, _ = explore_gating () in
  Printf.printf "check probe (feed off): %d schedule(s) explored, %d pruned\n%!" s0 p0;
  [
    ( "check_smoke",
      obj
        [
          ("schedules", string_of_int schedules);
          ("pruned", string_of_int pruned);
          ("wall_ms", num 2 ms);
          ("findings", string_of_int findings);
          ("schedules_nofeed", string_of_int s0);
          ("pruned_nofeed", string_of_int p0);
        ] );
  ]

(* parallel-explorer probe: the same gating registry at 1, 2 and 4
   domains. Determinism makes the runs comparable schedule-for-schedule
   (identical totals by construction); the wall-clock ratio is bounded
   by the cores the host actually exposes, so the row records the
   measured speedup, whatever it is, next to the schedule count. *)
let check_par () =
  let certs = gating_certs () in
  let rows =
    List.map
      (fun jobs ->
        let schedules, _, _, ms = explore_gating ?certs ~jobs () in
        (jobs, schedules, ms))
      [ 1; 2; 4 ]
  in
  let base = match rows with (_, _, ms) :: _ -> ms | [] -> 0.0 in
  List.map
    (fun (jobs, schedules, ms) ->
      Printf.printf "check-par probe: jobs=%d, %d schedule(s) in %.0f ms (speedup %.2fx)\n%!"
        jobs schedules ms (speedup ~base ms);
      ( Printf.sprintf "check_par_%d" jobs,
        obj
          [
            ("jobs", string_of_int jobs);
            ("schedules", string_of_int schedules);
            ("wall_ms", num 2 ms);
            ("speedup", num 3 (speedup ~base ms));
          ] ))
    rows

(* macro throughput probe: the fig1-shaped healthy cell (3-replica
   DepFastRaft under the closed-loop YCSB-style write workload, no fault
   injected) — the replication-path number the zero-copy/pooled/pipelined
   overhaul and now the group-commit batcher are accountable to. Runs the
   cell twice: with the adaptive batcher (default config) and with batching
   forced off ([max_batch = 1]), so the JSON records the amortization
   (mean batch size, fsyncs per op) next to its throughput effect. *)
let macro quick =
  let params = params quick in
  let row (key, label, cfg) =
    let cell =
      Harness.Runner.run_cell ~cfg ~trace:false ~params ~system:Harness.Runner.Depfast_raft
        ~n:3 ~slow_count:1 ~fault:None ()
    in
    let m = cell.Harness.Runner.metrics in
    let tput = Workload.Metrics.throughput m in
    let p50 = Workload.Metrics.p50_latency_ms m in
    let p99 = Workload.Metrics.p99_latency_ms m in
    let cpu = m.Workload.Metrics.leader_utilization in
    (* committed ops per leader fsync *)
    let mean_batch =
      if m.Workload.Metrics.leader_fsyncs = 0 then 0.0
      else
        float_of_int m.Workload.Metrics.completed /. float_of_int m.Workload.Metrics.leader_fsyncs
    in
    let fsyncs = Workload.Metrics.fsyncs_per_op m in
    let shed = Workload.Metrics.shed_rate m in
    Printf.printf
      "macro probe (%s): %.0f ops/s, p50 %.2f ms, p99 %.2f ms, leader CPU %.0f%%, mean \
       batch %.1f, %.2f fsyncs/op, shed %.1f%%\n\
       %!"
      label tput p50 p99 (100.0 *. cpu) mean_batch fsyncs (100.0 *. shed);
    ( key,
      obj
        [
          ("tput_ops_s", num 2 tput);
          ("p50_ms", num 2 p50);
          ("p99_ms", num 2 p99);
          ("leader_cpu", num 4 cpu);
          ("mean_batch", num 2 mean_batch);
          ("fsyncs_per_op", num 4 fsyncs);
          ("shed_rate", num 4 shed);
        ] )
  in
  List.map row
    [
      ("fig1_macro", "batching", Raft.Config.default);
      ("fig1_macro_nobatch", "no batching", { Raft.Config.default with Raft.Config.max_batch = 1 });
    ]

(* Every experiment, in the order a bare run executes them. A run returns
   the JSON sections it produced as (key, rendered value) pairs; the
   paper's tables and figures only print and return none. *)
let experiments : (string * (quick:bool -> json:bool -> (string * string) list)) list =
  let print f ~quick ~json:_ =
    f (params quick);
    []
  in
  [
    ("table1", print (fun _ -> Harness.Table1.print ()));
    ( "fig1",
      fun ~quick ~json ->
        if json then fig1_trace quick
        else (
          Harness.Fig1.print ~params:(params quick) ();
          []) );
    ("fig2", print (fun _ -> Harness.Fig2.print ()));
    ("fig3", print (fun params -> Harness.Fig3.print ~params ()));
    ("ablation", print (fun params -> Harness.Ablation.print ~params ()));
    ("mitigation", print (fun params -> Harness.Mitigation.print ~params ()));
    ("micro", fun ~quick:_ ~json:_ -> micro ());
  ]
  @ List.map
      (fun (probe, passes, counts) -> (probe, fun ~quick:_ ~json:_ -> analysis probe passes counts))
      analysis_probes
  @ [
      ("macro", fun ~quick ~json:_ -> macro quick);
      ("check", fun ~quick:_ ~json:_ -> check ());
      ("check_par", fun ~quick:_ ~json:_ -> check_par ());
    ]

let write_json path sections =
  let oc = open_out path in
  output_string oc
    ("{\n"
    ^ String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  %S: %s" k v) sections)
    ^ "\n}\n");
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let () =
  let quick = ref false in
  let json = ref false in
  let names = ref [] in
  let spec =
    [
      ("--quick", Arg.Set quick, " use small parameters (CI-friendly)");
      ( "--json",
        Arg.Set json,
        " write the JSON sections of the experiments run to BENCH_core.json (fig1 becomes the \
         trace-overhead probe)" );
    ]
  in
  Arg.parse spec (fun a -> names := a :: !names) "bench/main.exe [--quick] [--json] [experiment...]";
  let names = if !names = [] then List.map fst experiments else List.rev !names in
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "unknown experiment %S (expected %s)\n" name
          (String.concat "|" (List.map fst experiments));
        exit 2
      end)
    names;
  let sections =
    List.concat_map (fun name -> (List.assoc name experiments) ~quick:!quick ~json:!json) names
  in
  if !json then write_json "BENCH_core.json" sections
