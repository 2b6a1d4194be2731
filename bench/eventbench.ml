(* Event-core microbench: the complexity curves behind the kqueue
   reactor engine and the hierarchical timing wheel.

   Both experiments hold the *hot* population fixed (128 ready watches,
   128 due timers) and sweep the *idle* population 10^2..10^5.  The
   claim under test is the one DESIGN.md makes for the event core:
   per-pass work tracks the ready/due set, never the registered set.

   - kqueue vs scan: N idle watches + 128 hot ones on synthetic asyncio
     objects; each round fires the hot set and runs one reactor pass.
     The reactor's kqueue dequeues exactly the fired knotes (O(ready));
     [Reactor.stats.visits] is the deterministic work counter.  The
     strawman is a pass that visits every watch (O(watches)), which is
     (idle + hot) x rounds visits in closed form.

   - timing wheel: N idle timers parked seconds-to-minutes out + 128
     timers due inside a 900-tick window; one [Timewheel.advance] walks
     the window.  Wheel work = fires + cascade re-files, against the
     every-tick-scan strawman of armed x ticks visits (what the
     pre-wheel TCP slow tick paid per PCB).  The same run checks the
     timing contract: no fire before its deadline, none more than one
     granule after. *)

(* ---- synthetic asyncio: exact, driver-free readiness source ---- *)

type synthetic = {
  syn_aio : Io_if.asyncio;
  fire : unit -> unit; (* become readable and notify listeners *)
  clear : unit -> unit; (* consumed: back to not-ready *)
}

let synthetic () =
  let subs = ref [] and next = ref 1 and ready = ref 0 in
  let aio =
    Io_if.asyncio_view
      ~unknown:(fun () -> Com.create (fun _ -> []))
      ~poll:(fun () -> !ready)
      ~add_listener:(fun ~mask f ->
        let id = !next in
        incr next;
        subs := (id, mask, f) :: !subs;
        id)
      ~remove_listener:(fun id -> subs := List.filter (fun (i, _, _) -> i <> id) !subs)
      ()
  in
  { syn_aio = aio;
    fire =
      (fun () ->
        ready := Io_if.aio_read;
        List.iter (fun (_, m, f) -> if m land Io_if.aio_read <> 0 then f Io_if.aio_read) !subs);
    clear = (fun () -> ready := 0) }

type kq_row = {
  kr_idle : int;
  kr_hot : int;
  kr_rounds : int;
  kr_scan_visits : int; (* strawman: every watch examined every pass *)
  kr_kq_visits : int; (* knotes dequeued *)
  kr_dispatches : int; (* callbacks run *)
}

let kq_sweep ~idle ~hot ~rounds =
  let r = Reactor.create () in
  for _ = 1 to idle do
    let s = synthetic () in
    ignore (Reactor.watch r s.syn_aio ~mask:Io_if.aio_read (fun _ -> ()))
  done;
  let hits = ref 0 in
  let hots = Array.init hot (fun _ -> synthetic ()) in
  Array.iter
    (fun s ->
      ignore
        (Reactor.watch r s.syn_aio ~mask:Io_if.aio_read (fun _ ->
             incr hits;
             s.clear ())))
    hots;
  for _ = 1 to rounds do
    Array.iter (fun s -> s.fire ()) hots;
    ignore (Reactor.step r)
  done;
  if !hits <> hot * rounds then failwith "eventbench: the reactor lost a readiness notification";
  let st = Reactor.stats r in
  { kr_idle = idle;
    kr_hot = hot;
    kr_rounds = rounds;
    kr_scan_visits = (idle + hot) * rounds;
    kr_kq_visits = st.Reactor.visits;
    kr_dispatches = st.Reactor.dispatches }

type wheel_row = {
  wr_idle : int;
  wr_hot : int;
  wr_ticks : int; (* window walked by [advance] *)
  wr_fires : int;
  wr_cascades : int;
  wr_work : int; (* fires + cascades: the wheel's actual visits *)
  wr_scan_visits : int; (* strawman: every-tick scan of all armed *)
  wr_early : int; (* fires before deadline (must be 0) *)
  wr_late : int; (* fires > 1 granule past deadline (must be 0) *)
  wr_missed : int; (* due timers that never fired (must be 0) *)
}

let wheel_window_ticks = 900

let wheel_run ~idle ~hot =
  let w = Timewheel.create ~now_ns:0 () in
  let g = Timewheel.granularity_ns w in
  (* Idle park: deadlines 1024 ticks .. ~60s, spread across levels 1-2,
     all safely past the advance window so none fire or cascade. *)
  for i = 0 to idle - 1 do
    let tick = 1024 + (i * 389 mod 60_000) in
    ignore (Timewheel.arm w ~deadline_ns:(tick * g) (fun () -> ()))
  done;
  let early = ref 0 and late = ref 0 and fired_hot = ref 0 in
  for i = 0 to hot - 1 do
    (* Mid-granule deadlines inside the window, exercising the ceiling. *)
    let deadline_ns = (((1 + (i * 7 mod (wheel_window_ticks - 1))) * g) + (g / 2)) in
    ignore
      (Timewheel.arm w ~deadline_ns (fun () ->
           incr fired_hot;
           let at = Timewheel.now_ns w in
           if at < deadline_ns then incr early;
           if at - deadline_ns >= g then incr late))
  done;
  (* Walk the window in uneven chunks, the way a live driver would. *)
  let now = ref 0 in
  let chunk = ref (3 * g) in
  while !now < wheel_window_ticks * g do
    now := min (wheel_window_ticks * g) (!now + !chunk);
    chunk := ((!chunk * 7) mod (97 * g)) + g;
    ignore (Timewheel.advance w ~now_ns:!now)
  done;
  let st = Timewheel.stats w in
  { wr_idle = idle;
    wr_hot = hot;
    wr_ticks = wheel_window_ticks;
    wr_fires = st.Timewheel.fires;
    wr_cascades = st.Timewheel.cascades;
    wr_work = st.Timewheel.fires + st.Timewheel.cascades;
    wr_scan_visits = (idle + hot) * wheel_window_ticks;
    wr_early = !early;
    wr_late = !late;
    wr_missed = hot - !fired_hot }

let idle_sweep = [ 100; 1_000; 10_000; 100_000 ]
let hot_set = 128
let kq_rounds = 10
