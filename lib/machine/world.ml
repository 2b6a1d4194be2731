(* The queue is an indexed binary min-heap over (time, seq): equal times
   fire in scheduling order because [seq] grows with every [at].  Each
   queued event records its heap slot, so [cancel] unlinks it at once —
   an early-cancelled 2MSL callout must not hold its closure for minutes
   of virtual time — and [pending] counts live events only.  Scheduling,
   cancelling and stepping allocate nothing beyond the event handle. *)
type event = {
  time : int;
  seq : int;
  mutable action : unit -> unit; (* [ignore] once fired or cancelled *)
  mutable slot : int; (* index in [owner.heap]; -1 when not queued *)
  owner : t;
}

and t = {
  mutable now : int;
  mutable heap : event array; (* [0, size) is the heap; the rest is [vacant] *)
  mutable size : int;
  mutable next_seq : int;
  mutable fuel : int;
}

exception Out_of_fuel

(* Fills every unused slot, so a popped or cancelled event is not kept
   reachable by the array. *)
let rec vacant = { time = 0; seq = 0; action = ignore; slot = -1; owner = nobody }
and nobody = { now = 0; heap = [||]; size = 0; next_seq = 0; fuel = 0 }

let create () =
  { now = 0; heap = Array.make 64 vacant; size = 0; next_seq = 0; fuel = 200_000_000 }

let now t = t.now
let set_fuel t fuel = t.fuel <- fuel

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let place t i ev =
  t.heap.(i) <- ev;
  ev.slot <- i

let rec sift_up t i ev =
  if i = 0 then place t 0 ev
  else
    let parent = (i - 1) / 2 in
    let p = t.heap.(parent) in
    if before ev p then begin
      place t i p;
      sift_up t parent ev
    end
    else place t i ev

let rec sift_down t i ev =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i ev
  else
    let r = l + 1 in
    let c = if r < t.size && before t.heap.(r) t.heap.(l) then r else l in
    let child = t.heap.(c) in
    if before child ev then begin
      place t i child;
      sift_down t c ev
    end
    else place t i ev

(* Take [ev] out of its heap: the last element fills the hole and moves up
   or down to where it belongs. *)
let unlink t ev =
  let i = ev.slot in
  let last = t.size - 1 in
  let moved = t.heap.(last) in
  t.heap.(last) <- vacant;
  t.size <- last;
  ev.slot <- -1;
  ev.action <- ignore;
  if i < last then
    if i > 0 && before moved t.heap.((i - 1) / 2) then sift_up t i moved
    else sift_down t i moved

let at t time action =
  let time = max time t.now in
  let ev = { time; seq = t.next_seq; action; slot = -1; owner = t } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) vacant in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) ev;
  ev

let after t dt action = at t (t.now + dt) action
let cancel ev = if ev.slot >= 0 then unlink ev.owner ev

(* Live events only: cancellation removes the entry, so this is exact. *)
let pending t = t.size

let step t =
  if t.size = 0 then false
  else begin
    let ev = t.heap.(0) in
    let action = ev.action in
    unlink t ev;
    t.now <- max t.now ev.time;
    action ();
    true
  end

let run ?(until = fun () -> false) t =
  let rec go fuel =
    if fuel = 0 then raise Out_of_fuel;
    if (not (until ())) && step t then go (fuel - 1)
  in
  go t.fuel
