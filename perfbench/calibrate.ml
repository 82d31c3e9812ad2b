(* Host-speed calibration. The benchmark runs on shared hosts whose speed
   can drift by up to 2x within minutes (neighbours contending for
   caches, memory bandwidth and cores). A calibration child process does
   a fixed amount of work that uses no code of the repository, a
   "round", every two seconds or so while a workload runs; the workload
   waits meanwhile and its clock stands still. The wall-clock end-to-end
   metrics are then scaled to a reference speed:

     reported = measured * reference_round_s / mean round time of the run

   The child has its own heap, so nothing the workload leaves behind
   (live data, heap fragmentation, GC debt) changes a round's time: only
   the host does. A round allocates (a hash table of 100K string keys,
   folded to a list and sorted, all garbage afterwards) and then chases
   1M pointers through a 32 MiB random permutation. On the 2-vCPU x86-64
   container the baseline was taken on, this pair tracked the drift of
   the analysis passes and of the explorer better than either half alone,
   smaller rounds, or a plain arithmetic loop (perfbench/NOTES.md). *)

(* One round's time at the reference speed: the 2-vCPU x86-64 container
   the baseline was taken on, in a quiet period. *)
let reference_round_s = 0.40

let perm_size = 1 lsl 22

let make_perm () =
  let a = Array.init perm_size Fun.id in
  let st = Random.State.make [| 1 |] in
  for i = perm_size - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let alloc () =
  let h = Hashtbl.create 16 in
  for i = 1 to 100_000 do
    Hashtbl.replace h (string_of_int (i * 7919)) (Array.make 8 i)
  done;
  ignore (Sys.opaque_identity (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])))

let chase perm =
  let p = ref 0 in
  for _ = 1 to 1_000_000 do
    p := perm.(!p)
  done;
  ignore (Sys.opaque_identity !p)

(* The child: one untimed round to warm up, then a timed round for each
   byte read, each acknowledged with a byte; at end of input it writes
   the rounds' times, one a line, and exits. *)
let child_main () =
  let perm = make_perm () in
  alloc ();
  chase perm;
  let times = ref [] in
  try
    while true do
      ignore (input_char stdin);
      let t0 = Unix.gettimeofday () in
      alloc ();
      chase perm;
      times := (Unix.gettimeofday () -. t0) :: !times;
      print_char 'd';
      flush stdout
    done
  with End_of_file ->
    List.iter (Printf.printf "%.9f\n") (List.rev !times);
    exit 0

type t = {
  pid : int;
  to_child : Unix.file_descr;
  from_child : Unix.file_descr;
  mutable rounds : float list;  (* filled in by [finish] *)
  mutable finished : bool;
}

(* Wall time spent in rounds so far, and when the last one ended. A
   round allocates nothing in this process (all-float record, fixed
   buffers), so how many rounds a run takes changes none of its
   allocation counts or its peak heap. *)
type clock_state = { mutable spent : float; mutable last : float }

let state = { spent = 0.0; last = 0.0 }

(* A clock that stands still during rounds: the benchmark times
   everything with it, so a round taken inside a timed phase does not
   count towards it. *)
let clock () = Unix.gettimeofday () -. state.spent

(* The calibrator of this process, once started. *)
let active : t option ref = ref None

(* Start the child (this executable with --calibrate) and make it the
   active calibrator. *)
let start () =
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--calibrate" |]
      child_in child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  let t = { pid; to_child; from_child; rounds = []; finished = false } in
  active := Some t;
  t

let request = Bytes.make 1 'g'
let reply = Bytes.create 1

(* One round; the caller waits while the child works. *)
let round t =
  let t0 = Unix.gettimeofday () in
  if Unix.write t.to_child request 0 1 <> 1 || Unix.read t.from_child reply 0 1 <> 1 then
    failwith "calibration child stopped";
  let t1 = Unix.gettimeofday () in
  state.spent <- state.spent +. (t1 -. t0);
  state.last <- t1

(* A round when two seconds have passed since the last one ended. The
   workloads call this often (between repetitions, set-ups, passes and
   scenarios, and every 5 ms of simulated time), so the rounds sample
   the host every two seconds or so whatever runs. *)
let tick () =
  match !active with
  | Some t when (not t.finished) && Unix.gettimeofday () -. state.last >= 2.0 -> round t
  | _ -> ()

let close_and_wait t =
  t.finished <- true;
  active := None;
  (try Unix.close t.to_child with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr t.from_child in
  let rec lines acc =
    match In_channel.input_line ic with Some l -> lines (l :: acc) | None -> List.rev acc
  in
  let ls = try lines [] with Sys_error _ -> [] in
  close_in_noerr ic;
  ignore (Unix.waitpid [] t.pid);
  ls

(* A last round, then end the child, wait for it and collect the times
   of its rounds. *)
let finish t =
  if not t.finished then begin
    round t;
    t.rounds <- List.map float_of_string (close_and_wait t)
  end

(* End the child and wait for it, if [finish] has not. *)
let stop t = if not t.finished then ignore (close_and_wait t)

let rounds t = t.rounds

(* What a measured time is multiplied by to give it at the reference
   speed. *)
let factor t =
  match t.rounds with
  | [] -> invalid_arg "Calibrate.factor: no round taken"
  | rs -> reference_round_s /. (List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs))
