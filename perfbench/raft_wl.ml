(* The two fail-slow Raft workloads. Each runs a healthy cell and then
   the same cell with the fault injected, both driven by closed-loop
   YCSB clients through Workload.Driver. Link latency is the Net
   default (120 us + exponential with a 30 us mean). *)

open Report

type spec = {
  name : string;
  nodes : int;
  clients : int;
  records : int;
  read_share : float;
  warmup : Sim.Time.span;
  duration : Sim.Time.span;
  fault : Cluster.Fault.kind;
  victims : int;  (* followers the fault is injected into *)
}

(* Fig. 3's 5-node cell at Harness.Params.full. *)
let saturated =
  {
    name = "saturated_5n_slowdisk";
    nodes = 5;
    clients = 48;
    records = 500_000;
    read_share = 0.0;
    warmup = Sim.Time.sec 2;
    duration = Sim.Time.sec 12;
    fault = Cluster.Fault.Disk_slow;
    victims = 2;
  }

let light =
  {
    name = "light_3n_netslow";
    nodes = 3;
    clients = 4;
    records = 10_000;
    read_share = 0.5;
    warmup = Sim.Time.ms 500;
    duration = Sim.Time.sec 10;
    fault = Cluster.Fault.Net_slow;
    victims = 1;
  }

let workload spec =
  {
    (Workload.Ycsb.scaled ~records:spec.records ~value_size:1024 Workload.Ycsb.update_heavy)
    with
    Workload.Ycsb.read_proportion = spec.read_share;
  }

(* Counters read at the start and the end of the measurement window. *)
type snap = { msgs : int; bytes : int; resumes : int; minor : float; majors : int }

type cell = {
  faulted : bool;
  run_s : float;
  metrics : Workload.Metrics.t;
  group : Raft.Group.t;
  victims : Cluster.Node.t list;
  committed_puts : (string, unit) Hashtbl.t;
  window : snap * snap;
  stats : Depfast.Trace_stats.t option;
}

(* Build the cluster, elect node 0, inject the fault and wrap the
   clients; everything before the timed phase. *)
let set_up spec ~engine_seed ~seed ~faulted ~traced ~resumes =
  let engine = Sim.Engine.create ~seed:engine_seed () in
  let sched = Depfast.Sched.create engine in
  let stats =
    if not traced then None
    else begin
      let trace = Depfast.Sched.trace sched in
      Depfast.Trace.enable trace;
      let ts = Depfast.Trace_stats.create Depfast.Trace_stats.By_label in
      Depfast.Trace_stats.attach ts trace;
      Depfast.Sched.set_monitor sched
        (Some
           {
             Depfast.Sched.on_spawn = (fun ~cid:_ ~node:_ ~name:_ -> ());
             on_park = (fun ~cid:_ ~node:_ ~name:_ _ -> ());
             on_wake = (fun ~cid:_ _ _ -> ());
             on_resume = (fun ~cid:_ -> incr resumes);
             on_done = (fun ~cid:_ -> ());
           });
      Some ts
    end
  in
  let g = Raft.Group.create sched ~n:spec.nodes () in
  Depfast.Sched.spawn sched ~name:"bootstrap" (fun () -> Raft.Group.elect g 0);
  Depfast.Sched.run ~until:(Sim.Time.sec 1) sched;
  (match Raft.Group.leader g with
  | Some s when Raft.Server.id s = 0 -> ()
  | _ -> failwith "bootstrap election failed");
  let followers = List.filter (fun nd -> Cluster.Node.id nd <> 0) g.Raft.Group.nodes in
  let victims = if faulted then List.filteri (fun i _ -> i < spec.victims) followers else [] in
  List.iter (fun v -> ignore (Cluster.Fault.inject v spec.fault)) victims;
  (* the inputs: one YCSB op stream per client, made from the workload
     seed alone; the zipf constants are computed here, once *)
  let memo = Workload.Ycsb.make_memo () in
  let inputs = Sim.Rng.create seed in
  let puts = Hashtbl.create 4096 in
  let outcome = function
    | Raft.Client.Committed _ -> Workload.Driver.Committed
    | Raft.Client.Shed -> Workload.Driver.Shed
    | Raft.Client.Failed -> Workload.Driver.Failed
  in
  let clients =
    List.map
      (fun c ->
        let gen = Workload.Ycsb.make_gen ~memo (workload spec) (Sim.Rng.split inputs) in
        {
          Workload.Driver.node = Raft.Client.node c;
          (* Workload.Driver draws its op from the engine's RNG; the client
             sends the next op of its own stream instead *)
          run_op =
            (fun _ ->
              match Workload.Ycsb.next_op gen with
              | Workload.Ycsb.Update { key; value } ->
                let r = Raft.Client.submit c (Raft.Types.Put { key; value }) in
                (match r with Raft.Client.Committed _ -> Hashtbl.replace puts key () | _ -> ());
                outcome r
              | Workload.Ycsb.Read { key } ->
                outcome (Raft.Client.submit c (Raft.Types.Get { key })));
        })
      (Raft.Group.make_clients g ~count:spec.clients ())
  in
  (engine, sched, g, victims, clients, puts, stats)

let run_cell spec ~engine_seed ~seed ~faulted ~traced rc =
  let resumes = ref 0 in
  let engine, sched, g, victims, clients, puts, stats =
    span rc "setup" (fun () -> set_up spec ~engine_seed ~seed ~faulted ~traced ~resumes)
  in
  let leader = Raft.Group.server g 0 in
  let leader_node = Raft.Server.node leader in
  let snap () =
    let n = Cluster.Rpc.net_totals g.Raft.Group.rpc in
    {
      msgs = n.Cluster.Net.delivered;
      bytes = n.Cluster.Net.units;
      resumes = !resumes;
      minor = Gc.minor_words ();
      majors = (Gc.quick_stat ()).Gc.major_collections;
    }
  in
  let start = ref (snap ()) in
  let measure_from = Sim.Time.add (Sim.Engine.now engine) spec.warmup in
  ignore
    (Sim.Engine.schedule_at engine ~time:measure_from (fun () ->
         Cluster.Station.reset_stats (Cluster.Disk.station (Cluster.Node.disk leader_node));
         start := snap ()));
  (* a chance for a calibration round every 5 ms of simulated time *)
  let rec tick () =
    Calibrate.tick ();
    ignore (Sim.Engine.schedule engine ~delay:(Sim.Time.ms 5) tick)
  in
  tick ();
  let t1 = now () in
  let metrics =
    span rc "workload.driver" @@ fun () ->
    Workload.Driver.run sched ~clients ~workload:(workload spec) ~warmup:spec.warmup
      ~duration:spec.duration ~leader_node ()
  in
  let run_s = now () -. t1 in
  {
    faulted;
    run_s;
    metrics;
    group = g;
    victims;
    committed_puts = puts;
    window = (!start, snap ());
    stats;
  }

(* -- output checks -------------------------------------------------- *)

let check_cell c =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let label = if c.faulted then "faulted" else "healthy" in
  let servers = c.group.Raft.Group.servers in
  if c.metrics.Workload.Metrics.completed < 1 then fail "%s cell completed no op" label;
  let low = List.fold_left (fun a s -> min a (Raft.Server.commit_index s)) max_int servers in
  let logs = List.map Raft.Server.log servers in
  (match logs with
  | [] -> fail "%s cell has no servers" label
  | first :: rest ->
    for i = 1 to low do
      match Raft.Rlog.get first i with
      | None -> fail "%s cell: entry %d missing below the commit index" label i
      | Some e ->
        List.iter
          (fun l ->
            match Raft.Rlog.get l i with
            | Some e' when Raft.Types.equal_entry e e' -> ()
            | _ -> fail "%s cell: servers disagree on entry %d" label i)
          rest
    done);
  (match Raft.Group.leader c.group with
  | None -> fail "%s cell ended without a leader" label
  | Some leader ->
    let kv = Raft.Server.kv leader in
    let missing =
      Hashtbl.fold (fun k () n -> if Raft.Kv.get kv k = None then n + 1 else n) c.committed_puts 0
    in
    if missing > 0 then fail "%s cell: %d committed put key(s) absent at the leader" label missing);
  List.rev !problems

(* -- metrics -------------------------------------------------------- *)

let ms span = Sim.Time.to_ms_f span

(* The deterministic virtual-time numbers of a (healthy, faulted) pair. *)
let virtual_metrics (h, f) =
  let hm = h.metrics and fm = f.metrics in
  let attempted = fm.completed + fm.failed + fm.shed in
  [
    m "tput_ops_s" "ops/s" (Workload.Metrics.throughput fm);
    m "p50_ms" "ms" (Workload.Metrics.p50_latency_ms fm);
    m "p99_ms" "ms" (Workload.Metrics.p99_latency_ms fm);
    m "latency_samples" "count" (float_of_int (Sim.Hist.count fm.latency));
    m "tput_fault_ratio" "ratio" (Workload.Metrics.throughput fm /. Workload.Metrics.throughput hm);
    m "p99_fault_ratio" "ratio"
      (Workload.Metrics.p99_latency_ms fm /. Workload.Metrics.p99_latency_ms hm);
    m "failed_share" "ratio"
      (float_of_int (fm.failed + fm.shed) /. float_of_int (max 1 attempted));
    m "healthy_tput_ops_s" "ops/s" (Workload.Metrics.throughput hm);
    m "healthy_p50_ms" "ms" (Workload.Metrics.p50_latency_ms hm);
    m "healthy_p99_ms" "ms" (Workload.Metrics.p99_latency_ms hm);
    m "healthy_latency_samples" "count" (float_of_int (Sim.Hist.count hm.latency));
  ]

(* Trace labels of the waits reported per layer, with the name each has
   in a metric: the client's wait on the leader (node 0), the
   replication quorum, the WAL flush, the apply/commit and round
   condition variables, and the leader's CPU. *)
let wait_labels =
  [
    ("rpc->0", "client_rpc");
    ("replicate", "replicate");
    ("disk.fsync", "disk_fsync");
    ("commit", "commit");
    ("rounds", "rounds");
    ("cpu0", "cpu0");
  ]

let wait_metric (_, short) = "core.wait." ^ short

(* Per-layer numbers of the faulted cell of a traced pair. *)
let layer_metrics f =
  let fm = f.metrics in
  let ops = float_of_int (max 1 fm.completed) in
  let s0, s1 = f.window in
  let per_op a b = float_of_int (b - a) /. ops in
  let rpc = f.group.Raft.Group.rpc in
  let leader = Raft.Group.server f.group 0 in
  let leader_node = Raft.Server.node leader in
  let servers = f.group.Raft.Group.servers in
  let low_follower =
    List.fold_left
      (fun a s -> if Raft.Server.id s = 0 then a else min a (Raft.Server.commit_index s))
      max_int servers
  in
  let waits =
    match f.stats with
    | None -> []
    | Some ts ->
      List.concat_map
        (fun ((label, _) as l) ->
          let h = Depfast.Trace_stats.histogram ts label in
          let count, p50, p99 =
            match h with
            | None -> (0.0, 0.0, 0.0)
            | Some h -> (float_of_int (Sim.Hist.count h), ms (Sim.Hist.p50 h), ms (Sim.Hist.p99 h))
          in
          [
            m (wait_metric l ^ ".count") "count" count;
            m (wait_metric l ^ ".p50_ms") "ms" p50;
            m (wait_metric l ^ ".p99_ms") "ms" p99;
          ])
        wait_labels
  in
  [
    m "sim.minor_kwords_per_op" "kwords/op" ((s1.minor -. s0.minor) /. 1000.0 /. ops);
    m "sim.major_collections" "count" (float_of_int (s1.majors - s0.majors));
    m "sim.wall_us_per_op" "us/op" (f.run_s *. 1e6 /. ops);
    m "core.resumes_per_op" "1/op" (per_op s0.resumes s1.resumes);
  ]
  @ waits
  @ [
      m "cluster.msgs_per_op" "1/op" (per_op s0.msgs s1.msgs);
      m "cluster.bytes_per_op" "B/op" (per_op s0.bytes s1.bytes);
      m "cluster.discarded_responses" "count" (float_of_int (Cluster.Rpc.discarded_responses rpc));
      m "cluster.slow_outstanding_kb" "KiB"
        (float_of_int
           (List.fold_left
              (fun a v -> a + Cluster.Rpc.outstanding_bytes rpc ~node:(Cluster.Node.id v))
              0 f.victims)
        /. 1024.0);
      m "cluster.leader_disk_util" "ratio"
        (Cluster.Station.utilization (Cluster.Disk.station (Cluster.Node.disk leader_node)));
      m "raft.mean_batch" "cmds" (Sim.Hist.mean (Raft.Server.batch_hist leader));
      m "raft.fsyncs_per_op" "1/op" (Workload.Metrics.fsyncs_per_op fm);
      m "raft.leader_cpu" "ratio" fm.leader_utilization;
      m "raft.follower_lag" "entries" (float_of_int (Raft.Server.commit_index leader - low_follower));
      m "raft.shed" "count" (float_of_int (Raft.Server.shed_count leader));
      m "workload.completed" "count" (float_of_int fm.completed);
    ]

(* -- repetitions ---------------------------------------------------- *)

(* What is kept of one (healthy, faulted) pair: the cells themselves are
   dropped before the next pair runs, so repetitions do not stack up on
   the heap. *)
type summary = {
  vm : metric list;
  pair_s : float;  (* both timed phases *)
  problems : string list;
  attempted : int;  (* ops in both measurement windows *)
  failed : int;
  minor_per_op : float * float;  (* healthy, faulted *)
  layer : metric list;  (* traced pairs only *)
}

let pair spec ~engine_seed ~seed ~traced rc =
  let cell faulted =
    span rc (if faulted then "cell.faulted" else "cell.healthy") (fun () ->
        run_cell spec ~engine_seed ~seed ~faulted ~traced rc)
  in
  let h = cell false in
  let f = cell true in
  let minor_per_op c =
    let s0, s1 = c.window in
    (s1.minor -. s0.minor) /. float_of_int (max 1 c.metrics.completed)
  in
  let count g = g h.metrics + g f.metrics in
  let vm = virtual_metrics (h, f) in
  {
    vm;
    pair_s = h.run_s +. f.run_s;
    problems = span rc "check" (fun () -> check_cell h @ check_cell f);
    attempted = count (fun m -> m.completed + m.failed + m.shed);
    failed = count (fun m -> m.failed + m.shed);
    minor_per_op = (minor_per_op h, minor_per_op f);
    layer =
      (if not traced then []
       else
         layer_metrics f
         @ List.filter_map
             (fun (x : metric) ->
               if List.mem x.name [ "latency_samples"; "p50_ms"; "p99_ms"; "tput_fault_ratio"; "p99_fault_ratio"; "failed_share" ]
               then Some { x with name = "workload." ^ x.name }
               else None)
             vm);
  }

let run spec ~cal ~engine_seed ~seed ~seconds ~trace =
  let rc = recorder ~workload:spec.name ~enabled:trace in
  let off = recorder ~workload:spec.name ~enabled:false in
  (* pair i runs on its own workload seed, derived from the seed; pair 0
     on the seed itself, whose virtual-time results are the ones
     reported. The engine seed is the same for every pair. A traced run
     spends half its time untraced and then traces as many pairs. *)
  let plain, peak =
    repeat_for ~seconds:(if trace then seconds /. 2.0 else seconds) (fun i ->
        let s = pair spec ~engine_seed ~seed:(sub_seed seed i) ~traced:false off in
        Printf.printf "  pair %d: %.3f s\n%!" i s.pair_s;
        s)
  in
  let n = List.length plain in
  let setup_s =
    timed_setups 51 (fun i ->
        set_up spec ~engine_seed ~seed:(sub_seed seed i) ~faulted:(i mod 2 = 1) ~traced:false
          ~resumes:(ref 0))
  in
  Calibrate.finish cal;
  let k = Calibrate.factor cal in
  let run_s = mean (List.map (fun s -> s.pair_s) plain) in
  let first = List.hd plain in
  let traced =
    if trace then List.init n (fun i -> pair spec ~engine_seed ~seed:(sub_seed seed i) ~traced:true rc) else []
  in
  let total f = List.fold_left (fun a s -> a + f s) 0 plain in
  let pair_times l = List.fold_left (fun a s -> a +. s.pair_s) 0.0 l in
  let problems =
    List.concat_map (fun s -> s.problems) (plain @ traced)
    @ List.concat
        (List.map2
           (fun p t -> if p.vm = t.vm then [] else [ "virtual metrics differ between traced and untraced runs" ])
           (if trace then plain else []) traced)
  in
  {
    problems;
    attempted = total (fun s -> s.attempted);
    failed = total (fun s -> s.failed);
    e2e =
      [
        m "setup_s" "s" (setup_s *. k);
        m "run_s" "s" (run_s *. k);
        m "peak_heap_mb" "MB" peak;
        m "tput_ops_s" "ops/s" (value first.vm "tput_ops_s");
      ];
    shown =
      first.vm
      @ [
          m "healthy_minor_words_per_op" "words/op" (fst first.minor_per_op);
          m "faulted_minor_words_per_op" "words/op" (snd first.minor_per_op);
        ];
    timing = timing cal ~repetitions:n ~setup_s ~run_s;
    layer =
      (match traced with
      | [] -> []
      | t :: _ ->
        m "core.trace_overhead" "ratio" (pair_times traced /. pair_times plain) :: t.layer);
    recorder = rc;
  }
