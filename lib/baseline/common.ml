(** Shared plumbing for the three baseline RSM implementations.

    The baselines reproduce the paper's §2 measurement subjects at the level
    that matters: the {e implementation patterns} that break fail-slow
    tolerance. They share the protocol types, log, state machine, and client
    with DepFastRaft, and they run steady-state with a fixed leader (node 0)
    — the paper's Figure 1 experiments never change leaders; the one leader
    {e crash} it reports (RethinkDB under CPU faults) ends the run, which is
    exactly what the harness measures. *)

open Raft.Types

type rpc = (Raft.Types.req, Raft.Types.resp) Cluster.Rpc.t

type pending = {
  mutable p_ok : bool;
  mutable p_value : string option;
  p_done : Depfast.Event.t;
}

type queued = { q_cmd : command; q_client : int; q_seq : int; q_pending : pending }

(** Per-server state common to all three baselines. *)
type base = {
  node : Cluster.Node.t;
  rpc : rpc;
  cfg : Raft.Config.t;
  sched : Depfast.Sched.t;
  peers : int list;
  n_voters : int;
  leader_id : int;
  rlog : Raft.Rlog.t;
  kv : Raft.Kv.t;
  mutable commit_index : index;
  mutable last_applied : index;
  pending_q : queued Queue.t;
  by_index : (index, pending) Hashtbl.t;
  work_cv : Depfast.Condvar.t;
  commit_cv : Depfast.Condvar.t;
  append_mu : Depfast.Mutex.t;
      (** serializes the follower's replication-stream processing, like a
          per-connection reader thread *)
  rng : Sim.Rng.t;
}

let make_base rpc node ~peers ~leader_id ~cfg =
  let sched = Cluster.Node.sched node in
  {
    node;
    rpc;
    cfg;
    sched;
    peers;
    n_voters = List.length peers + 1;
    leader_id;
    rlog = Raft.Rlog.create ();
    kv = Raft.Kv.create ();
    commit_index = 0;
    last_applied = 0;
    pending_q = Queue.create ();
    by_index = Hashtbl.create 256;
    work_cv = Depfast.Condvar.create ~label:"work" ();
    commit_cv = Depfast.Condvar.create ~label:"commit" ();
    append_mu = Depfast.Mutex.create ~label:"append" ();
    rng = Sim.Engine.split_rng (Depfast.Sched.engine sched);
  }

let now b = Depfast.Sched.now b.sched
let alive b = Cluster.Node.alive b.node
let is_leader b = Cluster.Node.id b.node = b.leader_id
let cpu_work b w = Cluster.Node.cpu_work b.node w
let cpu_charge b w = ignore (Cluster.Station.submit (Cluster.Node.cpu b.node) ~work:w ())

let wal_append b ~bytes =
  let disk = Cluster.Node.disk b.node in
  ignore (Cluster.Disk.write disk ~bytes);
  Cluster.Disk.fsync disk

let wal_bytes b entries =
  entries_bytes entries + (Array.length entries * b.cfg.Raft.Config.wal_entry_overhead)

let enqueue b ~cmd ~client ~seq =
  let p =
    { p_ok = false; p_value = None; p_done = Depfast.Event.signal ~label:"committed" () }
  in
  (* depfast-lint: allow unbounded-growth — deliberate baseline defect: no
     admission control on the client->leader path; the only drain is a
     sibling replicator loop (ROADMAP: bounded backpressure) *)
  Queue.add { q_cmd = cmd; q_client = client; q_seq = seq; q_pending = p } b.pending_q;
  Depfast.Condvar.broadcast b.work_cv;
  p

let take_batch b max =
  let rec go acc k =
    if k = 0 || Queue.is_empty b.pending_q then List.rev acc
    else go (Queue.pop b.pending_q :: acc) (k - 1)
  in
  go [] max

(** Append a batch of queued commands to the leader log; returns entries. *)
let append_batch b batch =
  Array.map
    (fun q ->
      let e =
        {
          term = 1;
          index = Raft.Rlog.last_index b.rlog + 1;
          cmd = q.q_cmd;
          client_id = q.q_client;
          seq = q.q_seq;
        }
      in
      (* depfast-lint: allow unbounded-growth — known-unbounded log: the
         baselines never truncate (ROADMAP: log compaction / snapshots) *)
      Raft.Rlog.append b.rlog e;
      Hashtbl.replace b.by_index e.index q.q_pending;
      e)
    (Array.of_list batch)

(** Follower-side idempotent log append (no term conflicts here: baselines
    run a single fixed leader). *)
let follower_append b entries =
  Array.iter
    (fun e ->
      (* depfast-lint: allow unbounded-growth — known-unbounded log
         (ROADMAP: log compaction / snapshots) *)
      if e.index = Raft.Rlog.last_index b.rlog + 1 then Raft.Rlog.append b.rlog e)
    entries

let applier_loop b =
  let rec loop () =
    if alive b then begin
      if b.last_applied < b.commit_index then begin
        let i = b.last_applied + 1 in
        match Raft.Rlog.get b.rlog i with
        | None -> assert false
        | Some e ->
          cpu_work b b.cfg.Raft.Config.cost_apply_entry;
          let value = Raft.Kv.apply b.kv e in
          b.last_applied <- i;
          (match Hashtbl.find_opt b.by_index i with
          | Some p ->
            Hashtbl.remove b.by_index i;
            p.p_value <- value;
            p.p_ok <- true;
            Depfast.Event.fire p.p_done
          | None -> ());
          loop ()
      end
      else begin
        (* depfast-lint: allow red-exposure — applier handoff signalled by
           the local commit path; no remote peer can stall this condvar *)
        Depfast.Condvar.wait b.sched b.commit_cv;
        loop ()
      end
    end
  in
  loop ()

let set_commit b idx =
  if idx > b.commit_index then begin
    b.commit_index <- min idx (Raft.Rlog.last_index b.rlog);
    Depfast.Condvar.broadcast b.commit_cv
  end

let handle_client_request b ~cmd ~client_id ~seq =
  let cfg = b.cfg in
  cpu_work b cfg.Raft.Config.cost_client_parse;
  if not (is_leader b) then
    Client_resp { ok = false; shed = false; leader_hint = Some b.leader_id; value = None }
  else begin
    let p = enqueue b ~cmd ~client:client_id ~seq in
    let outcome =
      Depfast.Sched.wait_timeout b.sched p.p_done cfg.Raft.Config.client_timeout
    in
    cpu_work b cfg.Raft.Config.cost_client_reply;
    match outcome with
    | Depfast.Sched.Ready ->
      Client_resp
        { ok = p.p_ok; shed = false; leader_hint = Some b.leader_id; value = p.p_value }
    | Depfast.Sched.Timed_out ->
      Client_resp { ok = false; shed = false; leader_hint = Some b.leader_id; value = None }
  end

let hiccup_loop b =
  let cfg = b.cfg in
  let cpu = Cluster.Node.cpu b.node in
  let rec loop () =
    if alive b then begin
      Depfast.Sched.sleep b.sched (Sim.Dist.sample_span b.rng cfg.Raft.Config.hiccup_interval);
      let duration =
        min (Sim.Time.ms 10) (Sim.Dist.sample_span b.rng cfg.Raft.Config.hiccup_duration)
      in
      Cluster.Station.set_speed cpu
        (Cluster.Station.speed cpu *. cfg.Raft.Config.hiccup_factor);
      Depfast.Sched.sleep b.sched duration;
      Cluster.Station.set_speed cpu
        (Cluster.Station.speed cpu /. cfg.Raft.Config.hiccup_factor);
      loop ()
    end
  in
  loop ()

let start_common b =
  Cluster.Node.spawn b.node ~name:"applier" (fun () -> applier_loop b);
  if b.cfg.Raft.Config.enable_hiccups then
    Cluster.Node.spawn b.node ~name:"hiccup" (fun () -> hiccup_loop b)

(** Build nodes + rpc for an [n]-server baseline cluster; returns
    [(rpc, nodes)] with node ids [0..n-1], names s1..sN. *)
let make_cluster sched ~n ?mem_soft_cap ?mem_hard_cap () =
  let rpc : rpc = Cluster.Rpc.create sched () in
  let nodes =
    List.init n (fun i ->
        Cluster.Node.create sched ~id:i ~name:(Printf.sprintf "s%d" (i + 1))
          ?mem_soft_cap ?mem_hard_cap ())
  in
  (rpc, nodes)

(** Clients for a baseline cluster (reusing the Raft client). *)
let make_clients rpc ~sched ~server_ids ~cfg ~count =
  let first = List.fold_left max 0 server_ids + 1 in
  List.init count (fun j ->
      let node =
        Cluster.Node.create sched ~id:(first + j) ~name:(Printf.sprintf "c%d" (j + 1)) ()
      in
      Cluster.Rpc.attach rpc node;
      let client = Raft.Client.create rpc node ~servers:server_ids ~cfg ~id:(first + j) () in
      {
        Workload.Driver.node;
        run_op =
          (fun op ->
            let outcome =
              match op with
              | Workload.Ycsb.Update { key; value } ->
                Raft.Client.submit client (Put { key; value })
              | Workload.Ycsb.Read { key } -> Raft.Client.submit client (Get { key })
            in
            match outcome with
            | Raft.Client.Committed _ -> Workload.Driver.Committed
            | Raft.Client.Shed -> Workload.Driver.Shed
            | Raft.Client.Failed -> Workload.Driver.Failed);
      })
