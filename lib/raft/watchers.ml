type t = { fifo : (Types.index * Depfast.Event.t) Queue.t }

let create () = { fifo = Queue.create () }
let add w target ev = Queue.add (target, ev) w.fifo
let length w = Queue.length w.fifo

(* pop the ready prefix onto a list, so it comes out newest-first *)
let fire_upto w idx =
  let rec take ready =
    if (not (Queue.is_empty w.fifo)) && fst (Queue.peek w.fifo) <= idx then
      take (snd (Queue.take w.fifo) :: ready)
    else ready
  in
  List.iter Depfast.Event.fire (take [])
