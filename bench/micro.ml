(** Bechamel microbenchmarks of the DepFast core primitives. *)

open Bechamel
open Toolkit

let bench_event_fire =
  Test.make ~name:"event: create+fire signal"
    (Staged.stage (fun () ->
         let ev = Depfast.Event.signal () in
         Depfast.Event.fire ev))

let bench_quorum_propagation =
  Test.make ~name:"event: 5-child majority quorum fires"
    (Staged.stage (fun () ->
         let q = Depfast.Event.quorum Depfast.Event.Majority in
         let children = List.init 5 (fun i -> Depfast.Event.rpc_completion ~peer:i ()) in
         List.iter (fun c -> Depfast.Event.add q ~child:c) children;
         List.iter Depfast.Event.fire children;
         assert (Depfast.Event.is_ready q)))

let bench_nested_stallers =
  Test.make ~name:"event: stallers of 2PC-shaped tree"
    (Staged.stage
       (let shard base =
          let q = Depfast.Event.quorum Depfast.Event.Majority in
          for i = 0 to 2 do
            Depfast.Event.add q ~child:(Depfast.Event.rpc_completion ~peer:(base + i) ())
          done;
          q
        in
        let all = Depfast.Event.and_ () in
        Depfast.Event.add all ~child:(shard 0);
        Depfast.Event.add all ~child:(shard 3);
        fun () -> ignore (Depfast.Event.stallers all)))

let bench_coroutine_spawn =
  Test.make ~name:"sched: spawn+run 100 coroutines"
    (Staged.stage (fun () ->
         let engine = Sim.Engine.create () in
         let sched = Depfast.Sched.create engine in
         for _ = 1 to 100 do
           Depfast.Sched.spawn sched (fun () -> Depfast.Sched.yield sched)
         done;
         Depfast.Sched.run sched))

let bench_coroutine_wait =
  Test.make ~name:"sched: 100 quorum waits over timers"
    (Staged.stage (fun () ->
         let engine = Sim.Engine.create () in
         let sched = Depfast.Sched.create engine in
         for _ = 1 to 100 do
           Depfast.Sched.spawn sched (fun () ->
               let q = Depfast.Event.quorum Depfast.Event.Majority in
               Depfast.Event.add q ~child:(Depfast.Sched.timer sched 10);
               Depfast.Event.add q ~child:(Depfast.Sched.timer sched 20);
               Depfast.Event.add q ~child:(Depfast.Sched.timer sched 400);
               Depfast.Sched.wait sched q)
         done;
         Depfast.Sched.run sched))

let bench_engine_timers =
  Test.make ~name:"engine: 1000 timers through the wheel"
    (Staged.stage (fun () ->
         let engine = Sim.Engine.create () in
         for i = 1 to 1000 do
           ignore (Sim.Engine.schedule engine ~delay:(i mod 97) (fun () -> ()))
         done;
         Sim.Engine.run engine))

let bench_hist =
  Test.make ~name:"hist: add + p99 over 1000 samples"
    (Staged.stage (fun () ->
         let h = Sim.Hist.create () in
         for i = 1 to 1000 do
           Sim.Hist.add h (i * 37 mod 100_000)
         done;
         ignore (Sim.Hist.p99 h)))

let bench_rlog =
  Test.make ~name:"rlog: append+slice 1000 entries"
    (Staged.stage (fun () ->
         let log = Raft.Rlog.create () in
         for i = 1 to 1000 do
           Raft.Rlog.append log
             { term = 1; index = i; cmd = Raft.Types.Nop; client_id = -1; seq = 0 }
         done;
         ignore (Raft.Rlog.slice_array log ~from:500 ~max:64)))

let bench_net_send =
  Test.make ~name:"net: send+deliver 1000 messages (pooled links)"
    (Staged.stage (fun () ->
         let engine = Sim.Engine.create () in
         let sched = Depfast.Sched.create engine in
         let net = Cluster.Net.create sched ~latency:(Sim.Dist.Constant 100.0) () in
         let a = Cluster.Node.create sched ~id:0 ~name:"a" () in
         let b = Cluster.Node.create sched ~id:1 ~name:"b" () in
         Cluster.Net.register net a ~handler:(fun ~src:_ _ -> ());
         Cluster.Net.register net b ~handler:(fun ~src:_ _ -> ());
         for i = 1 to 1000 do
           Cluster.Net.send net ~src:(i land 1) ~dst:(1 - (i land 1)) i
         done;
         Depfast.Sched.run sched;
         assert (Cluster.Net.delivered_count net = 1000)))

let bench_rlog_ship =
  Test.make ~name:"rlog: ship 64-entry batch as a view (zero-copy)"
    (Staged.stage
       (let log = Raft.Rlog.create () in
        for i = 1 to 1000 do
          Raft.Rlog.append log
            { term = 1; index = i; cmd = Raft.Types.Nop; client_id = -1; seq = 0 }
        done;
        fun () ->
          let v = Raft.Rlog.view log ~from:500 ~max:64 in
          ignore (Raft.Rlog.View.bytes v)))

let bench_batch_drain =
  Test.make ~name:"raft: drain 64 queued commands into one Batch entry"
    (Staged.stage (fun () ->
         (* the leader's seal path: drain the admission queue through the
            forming accumulator into a single multi-command entry *)
         let q = Queue.create () in
         for i = 1 to 64 do
           Queue.add
             { Raft.Types.b_cmd = Raft.Types.Put { key = "k"; value = "v" };
               b_client = i land 7;
               b_seq = i }
             q
         done;
         let forming = ref [] in
         while not (Queue.is_empty q) do
           forming := Queue.pop q :: !forming
         done;
         let subs = Array.of_list (List.rev !forming) in
         let e =
           { Raft.Types.term = 1; index = 1; cmd = Raft.Types.Batch subs;
             client_id = -1; seq = 0 }
         in
         assert (Raft.Types.entry_bytes e > 0)))

let bench_watchers_fire =
  Test.make ~name:"raft: fire 1 watcher with 10K pending"
    (Staged.stage
       (* a lagging follower's steady state: 10K rounds wait behind the one
          its latest ack completes, and each run queues one more *)
       (let w = Raft.Watchers.create () in
        for i = 1 to 10_000 do
          Raft.Watchers.add w i (Depfast.Event.signal ())
        done;
        let next = ref 1 in
        fun () ->
          Raft.Watchers.fire_upto w !next;
          Raft.Watchers.add w (!next + 10_000) (Depfast.Event.signal ());
          incr next))

let all_tests =
  [
    ("event_fire", bench_event_fire);
    ("quorum_5_children", bench_quorum_propagation);
    ("stallers_2pc_tree", bench_nested_stallers);
    ("spawn_100_coroutines", bench_coroutine_spawn);
    ("quorum_waits_100", bench_coroutine_wait);
    ("engine_1000_timers", bench_engine_timers);
    ("hist_1000_samples", bench_hist);
    ("rlog_append_slice", bench_rlog);
    ("net_send_1000", bench_net_send);
    ("rlog_ship_batch", bench_rlog_ship);
    ("batch_drain_64", bench_batch_drain);
    ("watchers_fire_10k", bench_watchers_fire);
  ]

type result = {
  key : string;  (** stable identifier for BENCH_core.json *)
  label : string;  (** human-readable test name *)
  ns_per_run : float;
  minor_words_per_run : float;
}

(* one benchmark, measured for wall time and minor-heap allocation *)
let measure (key, test) =
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
  let estimate witness =
    let analyzed =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
        witness raw
    in
    Hashtbl.fold
      (fun _ ols acc ->
        match Analyze.OLS.estimates ols with Some [ est ] -> (est, true) | _ -> acc)
      analyzed (nan, false)
  in
  let label =
    let n = Hashtbl.fold (fun name _ _ -> name) raw key in
    if String.length n > 2 && String.sub n 0 2 = "g/" then
      String.sub n 2 (String.length n - 2)
    else n
  in
  {
    key;
    label;
    ns_per_run = fst (estimate Instance.monotonic_clock);
    minor_words_per_run = fst (estimate Instance.minor_allocated);
  }

let results () = List.map measure all_tests

let print rs =
  Printf.printf "\n=== Microbenchmarks (bechamel) ===\n\n%!";
  List.iter
    (fun r ->
      Printf.printf "%-45s %12.1f ns/run %12.1f minor words/run\n%!" r.label
        r.ns_per_run r.minor_words_per_run)
    rs

let run () = print (results ())
