(* The two verification-gate workloads: the five static passes
   `@lint-strict` runs over the tree, and the schedule explorer over the
   gating scenario registry with the static certificates it checks
   against. No simulation runs outside the explorer's own scenarios.
   Their inputs are the tree's sources and the scenario registry, so the
   seeds do not change them. *)

open Report

let lint_roots = [ "lib"; "bin"; "examples"; "bench" ]
let cert_roots = [ "lib" ]

(* The .ml files under [roots], as depfast_lint walks them. *)
let source_files roots =
  let rec walk path acc =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.fold_left
           (fun acc e -> if e = "_build" || e = ".git" then acc else walk (Filename.concat path e) acc)
           acc
    else if Filename.check_suffix path ".ml" && not (Filename.check_suffix path ".pp.ml") then
      path :: acc
    else acc
  in
  List.rev (List.fold_left (fun acc p -> walk p acc) [] roots)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A pass call wrapped in a span of its own name, after a chance for a
   calibration round. *)
let pass rc name f =
  Calibrate.tick ();
  span rc ("analysis." ^ name) f

let span_median rc name =
  match spans_named rc name with
  | [] -> 0.0
  | ss -> median (List.map duration ss)

(* Allocation of a span name's first occurrence: repetitions allocate
   the same, so one suffices. *)
let span_mwords rc name =
  match spans_named rc name with [] -> 0.0 | s :: _ -> s.minor_words /. 1e6

(* Per-pass layer metrics, named analysis.<pass>_s and _minor_mwords. *)
let pass_metrics rc passes =
  List.concat_map
    (fun p ->
      [
        m (Printf.sprintf "analysis.%s_s" p) "s" (span_median rc ("analysis." ^ p));
        m (Printf.sprintf "analysis.%s_minor_mwords" p) "Mwords" (span_mwords rc ("analysis." ^ p));
      ])
    passes

let passes = [ "source_lint"; "interproc"; "bounds"; "domains"; "spg" ]

(* -- lint_tree ------------------------------------------------------ *)

type sweep = { findings : Analysis.Finding.t list; certificates : int }

let sweep rc srcs =
  let lint =
    pass rc "source_lint" (fun () ->
        List.concat_map (fun (path, s) -> Analysis.Source_lint.lint_string ~path s) srcs)
  in
  let inter = pass rc "interproc" (fun () -> Analysis.Interproc.analyze_sources srcs) in
  let bf, bc = pass rc "bounds" (fun () -> Analysis.Bounds.analyze_sources srcs) in
  let df, dc, _ = pass rc "domains" (fun () -> Analysis.Domains.analyze_sources srcs) in
  let sf, sc, _ = pass rc "spg" (fun () -> Analysis.Spg_static.analyze_sources srcs) in
  {
    findings = List.concat [ lint; inter; bf; df; sf ];
    certificates = List.length bc + List.length dc + List.length sc;
  }

let lint_tree ~cal ~engine_seed:_ ~seed:_ ~seconds ~trace =
  let rc = recorder ~workload:"lint_tree" ~enabled:trace in
  let off = recorder ~workload:"lint_tree" ~enabled:false in
  (* the set-up: reading the sources the passes take *)
  let load _ = List.map (fun p -> (p, read_file p)) (source_files lint_roots) in
  let srcs = load 0 in
  let timed r i =
    let t0 = now () in
    let s = span r "sweep" (fun () -> sweep r srcs) in
    let t = now () -. t0 in
    Printf.printf "  sweep %d: %.3f s\n%!" i t;
    (t, s)
  in
  let plain, peak = repeat_for ~seconds:(if trace then seconds /. 2.0 else seconds) (timed off) in
  let n = List.length plain in
  let setup_s = timed_setups 201 load in
  Calibrate.finish cal;
  let k = Calibrate.factor cal in
  let run_s = mean (List.map fst plain) in
  let first = snd (List.hd plain) in
  let nfindings = List.length first.findings in
  let unallowed = List.length (Analysis.Finding.unallowed first.findings) in
  let gating = List.length (Analysis.Finding.gating ~strict:true first.findings) in
  let traced = if trace then List.init n (timed rc) else [] in
  let problems =
    (if unallowed > 0 then [ Printf.sprintf "%d unallowed finding(s)" unallowed ] else [])
    @ (if gating > 0 then [ Printf.sprintf "%d gating finding(s)" gating ] else [])
    @ List.concat_map
        (fun (_, s) ->
          if List.length s.findings = nfindings && s.certificates = first.certificates then []
          else [ "finding or certificate counts differ between repetitions" ])
        (List.tl plain @ traced)
  in
  let nfiles = List.length srcs in
  let passes_run = List.length plain * List.length passes in
  {
    problems;
    attempted = passes_run;
    failed = (if gating > 0 then passes_run else 0);
    e2e =
      [
        m "setup_s" "s" (setup_s *. k);
        m "run_s" "s" (run_s *. k);
        m "peak_heap_mb" "MB" peak;
        m "tput_ops_s" "ops/s" (float_of_int nfiles /. (run_s *. k));
      ];
    shown =
      [
        m "files" "count" (float_of_int nfiles);
        m "findings" "count" (float_of_int nfindings);
        m "unallowed" "count" (float_of_int unallowed);
        m "gating" "count" (float_of_int gating);
        m "certificates" "count" (float_of_int first.certificates);
      ];
    timing = timing cal ~repetitions:n ~setup_s ~run_s;
    layer =
      (if not trace then []
       else
         let traced_s = mean (List.map fst traced) in
         [
           m "sim.wall_us_per_op" "us/op" (traced_s *. 1e6 /. float_of_int nfiles);
           m "core.trace_overhead" "ratio" (traced_s /. run_s);
         ]
         @ pass_metrics rc passes
         @ [
             m "analysis.files" "count" (float_of_int nfiles);
             m "analysis.findings" "count" (float_of_int nfindings);
             m "analysis.certificates" "count" (float_of_int first.certificates);
           ]);
    recorder = rc;
  }

(* -- check_gating --------------------------------------------------- *)

(* The scenarios whose explore time is reported on its own. *)
let slow_scenarios =
  [ "raft-elect-3"; "raft-replicate-3"; "raft-rewind-3"; "raft-slow-disk-admission-3"; "raft-elect-5" ]

let scenario_metric name = "check.explore." ^ name ^ "_s"

type gate = {
  certs_s : float;  (* the certificate build: the set-up *)
  explore_s : float;  (* the exploration: the timed phase *)
  results : Check.Explore.result list;
  covered : int;
  minor : float;  (* allocated by the exploration *)
}

(* One gate: build the certificates over lib from a collected heap, then
   explore every scenario against them. *)
let gate rc scenarios =
  Gc.full_major ();
  let t0 = now () in
  let certs = span rc "check.certs" (fun () -> Check.Certificate.build ~roots:cert_roots ()) in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  let results =
    span rc "check.explore" (fun () ->
        List.map
          (fun (sc : Check.Scenario.t) ->
            let budget =
              {
                Check.Explore.default_budget with
                Check.Explore.max_schedules = sc.Check.Scenario.default_schedules;
              }
            in
            Calibrate.tick ();
            span rc ("check.explore." ^ sc.Check.Scenario.name) (fun () ->
                Check.Explore.explore ~budget ~certs ~jobs:1 sc))
          scenarios)
  in
  let w2 = Gc.minor_words () in
  {
    certs_s = t1 -. t0;
    explore_s = now () -. t1;
    results;
    covered = Check.Certificate.covered_count certs;
    minor = w2 -. w1;
  }

let sum f rs = List.fold_left (fun a r -> a + f r) 0 rs

let check_gating ~cal ~engine_seed:_ ~seed:_ ~seconds ~trace =
  let rc = recorder ~workload:"check_gating" ~enabled:trace in
  let off = recorder ~workload:"check_gating" ~enabled:false in
  let scenarios = Check.Registry.gating_scenarios in
  let timed r i =
    let g = span r "gate" (fun () -> gate r scenarios) in
    Printf.printf "  gate %d: certificates %.3f s, exploration %.3f s\n%!" i g.certs_s g.explore_s;
    g
  in
  let plain, peak = repeat_for ~seconds:(if trace then seconds /. 2.0 else seconds) (timed off) in
  let n = List.length plain in
  (* the certificate build is the static phase before exploration, so it
     is the set-up; the exploration is the timed phase *)
  let setup_s = median (List.map (fun g -> g.certs_s) plain) in
  let run_s = mean (List.map (fun g -> g.explore_s) plain) in
  Calibrate.finish cal;
  let k = Calibrate.factor cal in
  let first = List.hd plain in
  let rs = first.results in
  let findings = List.concat_map (fun r -> r.Check.Explore.findings) rs in
  let gating = List.length (Analysis.Finding.gating ~strict:false findings) in
  let schedules = sum (fun r -> r.Check.Explore.schedules) rs in
  let pruned = sum (fun r -> r.Check.Explore.pruned) rs in
  let budget_hit = sum (fun r -> if r.Check.Explore.complete then 0 else 1) rs in
  let counts g =
    List.map (fun r -> (r.Check.Explore.scenario, r.Check.Explore.schedules, List.length r.Check.Explore.findings)) g.results
  in
  let traced = if trace then List.init n (timed rc) else [] in
  let problems =
    (if gating > 0 then [ Printf.sprintf "%d gating finding(s)" gating ] else [])
    @ List.concat_map
        (fun g ->
          if counts g = counts first && g.covered = first.covered then []
          else [ "schedule or finding counts differ between repetitions" ])
        (List.tl plain @ traced)
  in
  let explored = List.length plain * List.length scenarios in
  {
    problems;
    attempted = explored;
    failed =
      List.length plain
      * List.length
          (List.filter
             (fun r -> Analysis.Finding.gating ~strict:false r.Check.Explore.findings <> [])
             rs);
    e2e =
      [
        m "setup_s" "s" (setup_s *. k);
        m "run_s" "s" (run_s *. k);
        m "peak_heap_mb" "MB" peak;
        m "tput_ops_s" "ops/s" (float_of_int schedules /. (run_s *. k));
      ];
    shown =
      [
        m "schedules" "count" (float_of_int schedules);
        m "pruned" "count" (float_of_int pruned);
        m "findings" "count" (float_of_int (List.length findings));
        m "gating" "count" (float_of_int gating);
        m "budget_hit" "count" (float_of_int budget_hit);
      ];
    timing = timing cal ~repetitions:n ~setup_s ~run_s;
    layer =
      (if not trace then []
       else
         let traced_s = mean (List.map (fun g -> g.explore_s) traced) in
         [
           m "sim.wall_us_per_op" "us/op" (traced_s *. 1e6 /. float_of_int schedules);
           m "core.trace_overhead" "ratio" (traced_s /. run_s);
           m "analysis.findings" "count" (float_of_int (List.length findings));
           m "analysis.certificates" "count" (float_of_int first.covered);
           m "check.certs_s" "s" (span_median rc "check.certs");
           m "check.explore_s" "s" (span_median rc "check.explore");
         ]
         @ List.map (fun n -> m (scenario_metric n) "s" (span_median rc ("check.explore." ^ n))) slow_scenarios
         @ [
             m "check.schedules" "count" (float_of_int schedules);
             m "check.pruned" "count" (float_of_int pruned);
             m "check.minor_kwords_per_schedule" "kwords"
               ((List.hd traced).minor /. 1000.0 /. float_of_int (max 1 schedules));
             m "check.budget_hit" "count" (float_of_int budget_hit);
           ]);
    recorder = rc;
  }
