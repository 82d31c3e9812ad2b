(* The repository benchmark, one workload per invocation:

     perfbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                   [--spans FILE]

   Run from the repository root (the tool workloads read lib/, bin/,
   examples/ and bench/). Prints every metric by name with its unit, the
   output checks, and as its last line one JSON object: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. A traced
   run also writes its spans, one JSON object per line, to --spans.
   `perfbench.exe --calibrate` is the host-speed calibration child the
   benchmark starts itself (calibrate.ml). *)

open Report

let workloads =
  [
    ("saturated_5n_slowdisk", Raft_wl.run Raft_wl.saturated);
    ("light_3n_netslow", Raft_wl.run Raft_wl.light);
    ("lint_tree", Tool_wl.lint_tree);
    ("check_gating", Tool_wl.check_gating);
  ]

let end_to_end = [ ("setup_s", "s"); ("run_s", "s"); ("peak_heap_mb", "MB"); ("tput_ops_s", "ops/s") ]

(* Every workload reports every per-layer metric; a layer the workload
   does not exercise reads 0. *)
let per_layer =
  let waits =
    List.concat_map
      (fun l -> [ (l ^ ".count", "count"); (l ^ ".p50_ms", "ms"); (l ^ ".p99_ms", "ms") ])
      (List.map Raft_wl.wait_metric Raft_wl.wait_labels)
  in
  [
    ("sim.minor_kwords_per_op", "kwords/op");
    ("sim.major_collections", "count");
    ("sim.wall_us_per_op", "us/op");
    ("core.resumes_per_op", "1/op");
    ("core.trace_overhead", "ratio");
  ]
  @ waits
  @ [
      ("cluster.msgs_per_op", "1/op");
      ("cluster.bytes_per_op", "B/op");
      ("cluster.discarded_responses", "count");
      ("cluster.slow_outstanding_kb", "KiB");
      ("cluster.leader_disk_util", "ratio");
      ("raft.mean_batch", "cmds");
      ("raft.fsyncs_per_op", "1/op");
      ("raft.leader_cpu", "ratio");
      ("raft.follower_lag", "entries");
      ("raft.shed", "count");
      ("workload.completed", "count");
      ("workload.latency_samples", "count");
      ("workload.p50_ms", "ms");
      ("workload.p99_ms", "ms");
      ("workload.tput_fault_ratio", "ratio");
      ("workload.p99_fault_ratio", "ratio");
      ("workload.failed_share", "ratio");
    ]
  @ List.concat_map
      (fun p -> [ ("analysis." ^ p ^ "_s", "s"); ("analysis." ^ p ^ "_minor_mwords", "Mwords") ])
      Tool_wl.passes
  @ [
      ("analysis.files", "count");
      ("analysis.findings", "count");
      ("analysis.certificates", "count");
      ("check.certs_s", "s");
      ("check.explore_s", "s");
    ]
  @ List.map (fun n -> (Tool_wl.scenario_metric n, "s")) Tool_wl.slow_scenarios
  @ [
      ("check.schedules", "count");
      ("check.pruned", "count");
      ("check.minor_kwords_per_schedule", "kwords");
      ("check.budget_hit", "count");
    ]

(* Order [got] as [want], filling absent metrics with 0 when [fill]. *)
let conform ~fill want got =
  List.iter
    (fun x ->
      match List.assoc_opt x.name want with
      | Some u when u = x.unit_ -> ()
      | _ -> failwith (Printf.sprintf "metric %s [%s] is not declared" x.name x.unit_))
    got;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) got with
      | Some x -> x
      | None when fill -> m name unit_ 0.0
      | None -> failwith ("metric " ^ name ^ " was not measured"))
    want

let usage =
  "perfbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]"

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--calibrate" then Calibrate.child_main ();
  let workload = ref "" and seed = ref 7 and engine_seed = ref 7 in
  let seconds = ref 10 and trace = ref 0 in
  let spans_path = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " one of the four workloads");
      ("--seed", Arg.Set_int seed, " workload seed: makes the inputs (default 7)");
      ("--engine-seed", Arg.Set_int engine_seed, " simulation engine seed (default 7)");
      ("--seconds", Arg.Set_int seconds, " measuring time per phase (default 10)");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--spans", Arg.Set_string spans_path, " where a traced run writes its spans");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      Printf.eprintf "unknown workload %S; expected one of: %s\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 in
  Printf.printf "workload %s, seed %d, engine seed %d, %d s, trace %d\n%!" !workload !seed
    !engine_seed !seconds !trace;
  let cal = Calibrate.start () in
  let r =
    Fun.protect ~finally:(fun () -> Calibrate.stop cal) @@ fun () ->
    run ~cal ~engine_seed:(Int64.of_int !engine_seed) ~seed:(Int64.of_int !seed)
      ~seconds:(float_of_int !seconds) ~trace:traced
  in
  print_metrics "end-to-end (untraced; wall-clock times at the reference host speed)" r.e2e;
  print_metrics "workload outputs" r.shown;
  print_metrics "wall-clock times as measured" r.timing;
  if traced then begin
    print_metrics "per-layer (traced)" r.layer;
    Printf.printf "span self time\n";
    List.iter
      (fun (name, n, t) -> Printf.printf "  %-36s %6d x %12.6f s\n" name n t)
      (self_times r.recorder);
    if !spans_path <> "" then write_spans r.recorder !spans_path
  end;
  if r.problems = [] then print_endline "output checks: all passed"
  else List.iter (fun p -> Printf.printf "output check FAILED: %s\n" p) r.problems;
  let metrics =
    if traced then conform ~fill:true per_layer r.layer else conform ~fill:false end_to_end r.e2e
  in
  print_endline
    (result_line ~correct:(r.problems = []) ~attempted:r.attempted ~failed:r.failed metrics)
