(* What one benchmark invocation measures and prints: named metrics with
   units, in-memory spans written out when the run ends, and the
   result line the harness reads. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let value ms name = (List.find (fun x -> x.name = name) ms).value

(* Every time is read from the calibration clock, which stands still
   during calibration rounds. *)
let now = Calibrate.clock

let median = function
  | [] -> invalid_arg "median of no samples"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Peak major-heap size of this process so far, in MiB. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let mean = function
  | [] -> invalid_arg "mean of no samples"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Repetitions [f 0], [f 1], ... until [seconds] of wall time have passed
   since the first began, calibration rounds included; at least one. The
   peak heap is read right after [f 0], so it depends on the first
   repetition's input alone, not on how many repetitions fit in the
   time. Returns the results in order and that peak. *)
let repeat_for ~seconds f =
  let t0 = Unix.gettimeofday () in
  Calibrate.tick ();
  let first = f 0 in
  let peak = peak_heap_mb () in
  let rec more i acc =
    Calibrate.tick ();
    if Unix.gettimeofday () -. t0 >= seconds then List.rev acc else more (i + 1) (f i :: acc)
  in
  (more 1 [ first ], peak)

(* Median time of [n] set-ups [f 0] .. [f (n-1)], each from a collected
   heap. The workloads time their set-ups after reading the peak heap, so
   the set-ups' garbage does not move peak_heap_mb. *)
let timed_setups n f =
  median
    (List.init n (fun i ->
         Gc.full_major ();
         Calibrate.tick ();
         let t0 = now () in
         ignore (Sys.opaque_identity (f i));
         now () -. t0))

(* The workload seed of repetition [i]: the seed itself first. *)
let sub_seed seed i = if i = 0 then seed else Int64.(add (mul seed 1_000_003L) (of_int i))

(* -- spans ---------------------------------------------------------- *)

type span = {
  id : int;
  sname : string;
  parent : int;  (* -1 at the root *)
  start : float;
  stop : float;
  minor_words : float;  (* allocated inside the span *)
}

type recorder = {
  workload : string;
  enabled : bool;
  mutable spans : span list;  (* newest first *)
  mutable stack : int list;
  mutable next_id : int;
}

let recorder ~workload ~enabled =
  { workload; enabled; spans = []; stack = []; next_id = 0 }

let span r name f =
  if not r.enabled then f ()
  else begin
    let id = r.next_id in
    r.next_id <- id + 1;
    let parent = match r.stack with p :: _ -> p | [] -> -1 in
    r.stack <- id :: r.stack;
    let w0 = Gc.minor_words () in
    let start = now () in
    let close () =
      let stop = now () in
      r.stack <- List.tl r.stack;
      r.spans <-
        { id; sname = name; parent; start; stop; minor_words = Gc.minor_words () -. w0 }
        :: r.spans
    in
    Fun.protect ~finally:close f
  end

let spans r = List.rev r.spans

let spans_named r name = List.filter (fun s -> s.sname = name) (spans r)

let duration s = s.stop -. s.start

(* Self time per span name: each span's duration minus the part its
   direct children cover (children never overlap: one domain). *)
let self_times r =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    r.spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let n, t = Option.value ~default:(0, 0.0) (Hashtbl.find_opt by_name s.sname) in
      Hashtbl.replace by_name s.sname (n + 1, t +. self))
    r.spans;
  Hashtbl.fold (fun name (n, t) acc -> (name, n, t) :: acc) by_name []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One JSON object per line, in start order. *)
let write_spans r path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %s, \"parent\": %d, \"start\": %.6f, \"end\": %.6f, \
         \"minor_words\": %.0f, \"workload\": %s}\n"
        s.id (json_string s.sname) s.parent s.start s.stop s.minor_words
        (json_string r.workload))
    (spans r);
  close_out oc

(* What a workload hands back to the command line. *)
type result = {
  problems : string list;  (* failed output checks *)
  attempted : int;
  failed : int;
  e2e : metric list;  (* BENCHMARK.json end_to_end, untraced *)
  shown : metric list;  (* printed for the reader, not in the result line *)
  timing : metric list;  (* the same, for the unscaled wall-clock times *)
  layer : metric list;  (* per-layer, traced run only *)
  recorder : recorder;
}

(* The wall-clock times as measured, before scaling to the reference
   speed, with the factor and the calibration rounds behind it. *)
let timing cal ~repetitions ~setup_s ~run_s =
  let rounds = Calibrate.rounds cal in
  [
    m "repetitions" "count" (float_of_int repetitions);
    m "measured_setup_s" "s" setup_s;
    m "measured_run_s" "s" run_s;
    m "calibration_rounds" "count" (float_of_int (List.length rounds));
    m "calibration_round_s" "s" (mean rounds);
    m "host_factor" "ratio" (Calibrate.factor cal);
  ]

(* -- output --------------------------------------------------------- *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "metric value is not finite"

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-36s %16s %s\n" x.name (number x.value) x.unit_) ms

let result_line ~correct ~attempted ~failed ms =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
             (number x.value) (json_string x.unit_))
         ms)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body
