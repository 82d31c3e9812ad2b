(* Strongly connected components, and a small directed graph with cycle
   reporting: the mutex acquisition-order graph of the interprocedural
   pass. The one Tarjan here also orders {!Project.solve}'s call graph. *)

type 'w edge = { src : string; dst : string; witness : 'w }
type 'w g = (string, 'w edge list ref) Hashtbl.t

let create () = Hashtbl.create 32

let node g n =
  match Hashtbl.find_opt g n with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.add g n r;
    r

let add_edge g ~src ~dst ~witness =
  let r = node g src in
  ignore (node g dst);
  if not (List.exists (fun e -> e.dst = dst) !r) then r := { src; dst; witness } :: !r

let successors g n = match Hashtbl.find_opt g n with Some r -> !r | None -> []

(* Tarjan's strongly connected components of the graph over [nodes]
   (visited in list order) with successor function [succ]. A component
   is listed only after every component it reaches, so the list runs
   callees-first; members are in discovery order. *)
let sccs nodes succ =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strong v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succ v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let comp = ref [] in
      let fin = ref false in
      while not !fin do
        match !stack with
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          comp := w :: !comp;
          if w = v then fin := true
        | [] -> fin := true
      done;
      out := !comp :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) nodes;
  List.rev !out

(* One witness cycle per cyclic SCC: the edge path [n1 -> n2 -> ... -> n1]
   found by BFS inside the component from its smallest node. *)
let cycles g =
  let in_comp comp n = List.mem n comp in
  List.filter_map
    (fun comp ->
      let cyclic =
        match comp with
        | [ n ] -> List.exists (fun e -> e.dst = n) (successors g n)
        | _ :: _ :: _ -> true
        | [] -> false
      in
      if not cyclic then None
      else begin
        let s = List.fold_left min (List.hd comp) comp in
        (* BFS from s within the component back to s *)
        let parent = Hashtbl.create 8 in
        let q = Queue.create () in
        let found = ref None in
        List.iter
          (fun e ->
            if !found = None && in_comp comp e.dst then
              if e.dst = s then found := Some [ e ]
              else if not (Hashtbl.mem parent e.dst) then begin
                Hashtbl.replace parent e.dst e;
                Queue.add e.dst q
              end)
          (successors g s);
        while !found = None && not (Queue.is_empty q) do
          let v = Queue.pop q in
          List.iter
            (fun e ->
              if !found = None && in_comp comp e.dst then
                if e.dst = s then begin
                  (* reconstruct s -> ... -> v -> s *)
                  let rec back n acc =
                    if n = s then acc
                    else
                      let pe = Hashtbl.find parent n in
                      back pe.src (pe :: acc)
                  in
                  found := Some (back v [] @ [ e ])
                end
                else if not (Hashtbl.mem parent e.dst) then begin
                  Hashtbl.replace parent e.dst e;
                  Queue.add e.dst q
                end)
            (successors g v)
        done;
        match !found with
        | Some path -> Some (s :: List.map (fun e -> e.dst) path, path)
        | None -> None
      end)
    (sccs
       (List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) g []))
       (fun n -> List.map (fun e -> e.dst) (successors g n)))
