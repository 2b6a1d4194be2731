(* Per-CPU timing-wheel instances coupled to a machine's virtual clocks.

   One {!Timewheel} per CPU, each driven by a single lazily-(re)scheduled
   {!World} event at the wheel's conservative next deadline — so a
   machine with no armed timers schedules nothing at all, and a machine
   with thousands of armed timers still wakes only when something is due
   (or at a 256-tick cascade boundary).  Entries armed for CPU [c] fire
   on CPU [c]'s clock ({!Machine.at_on}), which is how a flow's
   retransmit timer runs on its RSS home CPU without cross-CPU traffic.

   [for_machine] memoizes one instance per machine (physical identity)
   so independent components — both network stacks, the httpd's header
   deadlines — share the same per-CPU wheels. *)

type t = {
  machine : Machine.t;
  wheels : Timewheel.t array;  (* one per CPU *)
  sched_ns : int array;  (* deadline of the pending driver event; max_int = none *)
  driver : World.event option array;
}

let attach machine =
  let n = Machine.ncpus machine in
  let now = Machine.now machine in
  { machine;
    wheels = Array.init n (fun _ -> Timewheel.create ~now_ns:now ());
    sched_ns = Array.make n max_int;
    driver = Array.make n None }

let ncpus t = Array.length t.wheels
let wheel t ~cpu = t.wheels.(cpu)

(* (Re)schedule the driver event for [cpu] if the wheel's next deadline
   moved earlier than what is already pending.  The driver advances the
   wheel to the machine's current time — firing every due entry on the
   owning CPU — then re-arms itself from the new next deadline. *)
let rec reschedule t cpu =
  let w = t.wheels.(cpu) in
  match Timewheel.next_deadline_ns w with
  | None -> ()
  | Some d ->
      if d < t.sched_ns.(cpu) then begin
        (match t.driver.(cpu) with
        | Some ev -> World.cancel ev
        | None -> ());
        t.sched_ns.(cpu) <- d;
        t.driver.(cpu) <-
          Some
            (Machine.at_on t.machine ~cpu d (fun () ->
                 t.sched_ns.(cpu) <- max_int;
                 t.driver.(cpu) <- None;
                 ignore (Timewheel.advance w ~now_ns:(Machine.now t.machine));
                 reschedule t cpu))
      end

let after t ~cpu ~ns fn =
  let w = t.wheels.(cpu) in
  let e = Timewheel.arm w ~deadline_ns:(Machine.now t.machine + ns) fn in
  reschedule t cpu;
  e

let cancel e = Timewheel.cancel e

(* Aggregate wheel statistics across the per-CPU instances. *)
let stats t =
  Array.fold_left
    (fun (a, c, f, k, armed) w ->
      let s = Timewheel.stats w in
      ( a + s.Timewheel.arms,
        c + s.Timewheel.cancels,
        f + s.Timewheel.fires,
        k + s.Timewheel.cascades,
        armed + Timewheel.armed w ))
    (0, 0, 0, 0, 0) t.wheels

(* One shared instance per machine, so stacks and the httpd on the same
   machine arm the same per-CPU wheels.  Keyed by physical identity; the
   registry holds every machine that armed a wheel timer since the last
   [Clientos.reset_globals], which empties it between simulations. *)
let registry : (Machine.t * t) list ref = ref []

let for_machine machine =
  match List.find_opt (fun (m, _) -> m == machine) !registry with
  | Some (_, t) -> t
  | None ->
      let t = attach machine in
      registry := (machine, t) :: !registry;
      t

(* Arm a timer on the current machine's current CPU — the wheel-backed
   replacement for {!Kclock.callout_after}. *)
let callout_after ~ns fn =
  match Machine.current () with
  | None -> invalid_arg "Kwheel.callout_after: no machine running"
  | Some m ->
      let t = for_machine m in
      after t ~cpu:(Machine.cpu m) ~ns fn
