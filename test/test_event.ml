(* The event core: hierarchical timing wheel against a reference
   scheduler, cascade boundaries, per-CPU wheel firing through Kwheel,
   kqueue trigger modes and coalescing, the reactor's kqueue dispatch,
   the World.cancel regression, and the flags-off discipline (tick
   timers never touch the wheel counters). *)

let ok = function Ok v -> v | Result.Error _ -> Alcotest.fail "unexpected COM error"

(* ---- World.cancel: a cancelled event unlinks immediately ---- *)

let test_world_cancel () =
  let w = World.create () in
  let fired = ref [] in
  let e1 = World.at w 10 (fun () -> fired := 1 :: !fired) in
  let _e2 = World.at w 10 (fun () -> fired := 2 :: !fired) in
  let e3 = World.at w 20 (fun () -> fired := 3 :: !fired) in
  Alcotest.(check int) "three live events" 3 (World.pending w);
  World.cancel e1;
  World.cancel e3;
  World.cancel e3 (* idempotent *);
  Alcotest.(check int) "cancelled events unlink immediately, not at fire time" 1
    (World.pending w);
  World.run w;
  Alcotest.(check (list int)) "only the live event ran" [ 2 ] !fired

(* ---- timing wheel vs reference scheduler ----

   The model mirrors the documented contract exactly: an entry armed at
   wheel tick T for deadline D is due at tick max(ceil(D/g), T+1), and
   fires at the wheel time of that very tick.  Random interleavings of
   arm / cancel / advance must agree with the model at every step. *)

type model_entry = {
  due_tick : int;
  mutable m_fired : bool;
  mutable m_cancelled : bool;
  m_entry : Timewheel.entry;
}

let prop_wheel_model =
  QCheck.Test.make ~name:"timewheel: agrees with reference scheduler" ~count:200
    QCheck.(small_list (triple (int_range 0 2) (int_range 0 70_000) (int_range 1 700)))
    (fun ops ->
      let w = Timewheel.create ~now_ns:0 () in
      let g = Timewheel.granularity_ns w in
      let now = ref 0 and tick = ref 0 in
      let entries = ref [] in
      let contract_ok = ref true in
      List.iter
        (fun (k, x, y) ->
          match k with
          | 0 ->
              (* arm, mid-granule jitter to exercise the ceiling *)
              let deadline_ns = !now + (x * g) + (y * 917) in
              let due =
                let d =
                  if deadline_ns <= 0 then 0 else (deadline_ns + g - 1) / g
                in
                max d (!tick + 1)
              in
              let cell = ref None in
              let e =
                Timewheel.arm w ~deadline_ns (fun () ->
                    match !cell with
                    | None -> contract_ok := false
                    | Some me ->
                        if me.m_fired || me.m_cancelled then contract_ok := false;
                        me.m_fired <- true;
                        (* fires at exactly its due tick's wheel time *)
                        if Timewheel.now_ns w <> me.due_tick * g then
                          contract_ok := false)
              in
              let me =
                { due_tick = due; m_fired = false; m_cancelled = false; m_entry = e }
              in
              cell := Some me;
              entries := me :: !entries
          | 1 -> (
              (* cancel a live entry, if any *)
              let live =
                List.filter (fun me -> not (me.m_fired || me.m_cancelled)) !entries
              in
              match live with
              | [] -> ()
              | _ ->
                  let me = List.nth live (x mod List.length live) in
                  me.m_cancelled <- true;
                  Timewheel.cancel me.m_entry)
          | _ ->
              (* advance *)
              now := !now + (x * g) + y;
              tick := max !tick (!now / g);
              ignore (Timewheel.advance w ~now_ns:!now))
        ops;
      (* flush everything still armed *)
      now := !now + (80_000 * g);
      tick := max !tick (!now / g);
      ignore (Timewheel.advance w ~now_ns:!now);
      !contract_ok
      && List.for_all
           (fun me ->
             if me.m_cancelled then not me.m_fired
             else me.m_fired && me.due_tick <= !tick)
           !entries
      && Timewheel.armed w = 0)

(* ---- cascade boundaries: entries trickle down and fire exactly once ---- *)

let test_cascades () =
  let w = Timewheel.create ~now_ns:0 () in
  let g = Timewheel.granularity_ns w in
  (* Around the level-0/1 boundary, the level-1/2 boundary, and one
     entry deep in level 2: every tier of the cascade path. *)
  let ticks = [ 1; 255; 256; 257; 511; 65_535; 65_536; 65_537; 200_000 ] in
  let fires = ref [] in
  List.iter
    (fun tk ->
      ignore
        (Timewheel.arm w ~deadline_ns:(tk * g) (fun () ->
             fires := (tk, Timewheel.now_ns w) :: !fires)))
    ticks;
  ignore (Timewheel.advance w ~now_ns:(250_000 * g));
  Alcotest.(check int) "every entry fired once" (List.length ticks)
    (List.length !fires);
  List.iter
    (fun (tk, at) ->
      Alcotest.(check int) (Printf.sprintf "entry %d fired on its tick" tk) (tk * g) at)
    !fires;
  Alcotest.(check int) "nothing left armed" 0 (Timewheel.armed w);
  if (Timewheel.stats w).Timewheel.cascades = 0 then
    Alcotest.fail "no cascades happened: boundaries were not exercised"

(* ---- Kwheel: entries fire on their home CPU, earliest-deadline wins ---- *)

let test_kwheel_home_cpu () =
  let world = World.create () in
  let m = Machine.create ~ncpus:4 world in
  let kw = Kwheel.for_machine m in
  let fired_on = ref [] in
  let record tag () =
    let cpu = match Machine.current () with Some mm -> Machine.cpu mm | None -> -1 in
    fired_on := (tag, cpu, Machine.now m) :: !fired_on
  in
  (* A far entry first, then a near one on another CPU: the near one must
     not wait for the far driver event. *)
  ignore (Kwheel.after kw ~cpu:1 ~ns:1_000_000_000 (record "far"));
  ignore (Kwheel.after kw ~cpu:2 ~ns:5_000_000 (record "near"));
  World.run world;
  let near = List.assoc "near" (List.map (fun (t, c, n) -> (t, (c, n))) !fired_on)
  and far = List.assoc "far" (List.map (fun (t, c, n) -> (t, (c, n))) !fired_on) in
  Alcotest.(check int) "near entry fired on cpu 2" 2 (fst near);
  Alcotest.(check int) "far entry fired on cpu 1" 1 (fst far);
  if snd near < 5_000_000 || snd near >= 7_000_000 then
    Alcotest.failf "near entry fired at %d, outside [5ms, 5ms+2 granules)" (snd near);
  if snd far < 1_000_000_000 then Alcotest.fail "far entry fired early"

(* ---- kqueue: trigger modes, coalescing, spurious drops ---- *)

let test_kqueue_modes () =
  let kq = Kqueue.create () in
  let s = Test_asyncio.synthetic () in
  ok (Kqueue.add kq ~ident:7 ~aio:s.Test_asyncio.syn_aio ~filter:Io_if.aio_read ~flags:0);
  (* level: reported as long as the condition holds *)
  s.Test_asyncio.fire Io_if.aio_read;
  (match Kqueue.kevent kq ~max:8 with
  | [ ev ] ->
      Alcotest.(check int) "ident" 7 ev.Io_if.ke_ident;
      Alcotest.(check int) "filter" Io_if.aio_read ev.Io_if.ke_filter
  | evs -> Alcotest.failf "level: expected 1 event, got %d" (List.length evs));
  Alcotest.(check int) "level re-queued while still ready" 1 (Kqueue.depth kq);
  s.Test_asyncio.clear ();
  Alcotest.(check int) "consumed-before-dispatch dropped as spurious" 0
    (List.length (Kqueue.kevent kq ~max:8));
  (* coalescing: two notifications, one queue entry *)
  s.Test_asyncio.fire Io_if.aio_read;
  s.Test_asyncio.fire Io_if.aio_read;
  Alcotest.(check int) "coalesced to one entry" 1 (Kqueue.depth kq);
  Alcotest.(check int) "coalesce counted" 1 (Kqueue.stats kq).Kqueue.coalesced;
  s.Test_asyncio.clear ();
  ignore (Kqueue.kevent kq ~max:8);
  ok (Kqueue.delete kq ~ident:7 ~filter:Io_if.aio_read);
  Alcotest.(check int) "deleted" 0 (Kqueue.watches kq);
  (* edge: one report per notification, even while still ready *)
  let e = Test_asyncio.synthetic () in
  ok
    (Kqueue.add kq ~ident:8 ~aio:e.Test_asyncio.syn_aio ~filter:Io_if.aio_read
       ~flags:Io_if.ev_clear);
  e.Test_asyncio.fire Io_if.aio_read;
  Alcotest.(check int) "edge: delivered" 1 (List.length (Kqueue.kevent kq ~max:8));
  Alcotest.(check int) "edge: no re-queue while still ready" 0
    (List.length (Kqueue.kevent kq ~max:8));
  e.Test_asyncio.fire Io_if.aio_read;
  Alcotest.(check int) "edge: next notification delivers again" 1
    (List.length (Kqueue.kevent kq ~max:8));
  (* oneshot: auto-deleted after the first report *)
  let o = Test_asyncio.synthetic () in
  ok
    (Kqueue.add kq ~ident:9 ~aio:o.Test_asyncio.syn_aio ~filter:Io_if.aio_read
       ~flags:Io_if.ev_oneshot);
  o.Test_asyncio.fire Io_if.aio_read;
  Alcotest.(check int) "oneshot: delivered" 1 (List.length (Kqueue.kevent kq ~max:8));
  Alcotest.(check int) "oneshot: knote auto-deleted" 1 (Kqueue.watches kq);
  o.Test_asyncio.fire Io_if.aio_read;
  Alcotest.(check int) "oneshot: gone after delivery" 0
    (List.length (Kqueue.kevent kq ~max:8))

(* ---- the reactor dispatches through its kqueue ---- *)

let test_reactor_kq_engine () =
  let r = Reactor.create () in
  let s = Test_asyncio.synthetic () in
  let hits = ref 0 in
  let w =
    Reactor.watch r s.Test_asyncio.syn_aio ~mask:Io_if.aio_read (fun _ ->
        incr hits;
        s.Test_asyncio.clear ())
  in
  s.Test_asyncio.fire Io_if.aio_read;
  ignore (Reactor.step r);
  Alcotest.(check int) "dispatched through the ready queue" 1 !hits;
  Reactor.unwatch r w;
  s.Test_asyncio.fire Io_if.aio_read;
  Alcotest.(check int) "unwatch removed the knote" 0
    ((Reactor.stats r).Reactor.dispatches - 1)

(* ---- flags off: the new machinery stays cold ---- *)

let test_flags_off_counters () =
  Cost.reset_counters ();
  Alcotest.(check bool) "wheel flag defaults off" false Cost.config.Cost.timer_wheel;
  (* legacy timer path *)
  let world = World.create () in
  let m = Machine.create world in
  let ticked = ref false in
  ignore (Machine.after m 1_000 (fun () -> ticked := true));
  World.run world;
  Alcotest.(check bool) "legacy timer ran" true !ticked;
  let c = Cost.counters in
  Alcotest.(check int) "no wheel arms" 0 c.Cost.wheel_arms;
  Alcotest.(check int) "no wheel cancels" 0 c.Cost.wheel_cancels;
  Alcotest.(check int) "no wheel cascades" 0 c.Cost.wheel_cascades;
  Alcotest.(check int) "no wheel fires" 0 c.Cost.wheel_fires

let suite =
  [ Alcotest.test_case "World.cancel unlinks immediately" `Quick test_world_cancel;
    QCheck_alcotest.to_alcotest prop_wheel_model;
    Alcotest.test_case "timewheel cascade boundaries" `Quick test_cascades;
    Alcotest.test_case "kwheel fires on the home CPU" `Quick test_kwheel_home_cpu;
    Alcotest.test_case "kqueue level/edge/oneshot/coalesce" `Quick test_kqueue_modes;
    Alcotest.test_case "reactor kqueue engine" `Quick test_reactor_kq_engine;
    Alcotest.test_case "flags off: new counters untouched" `Quick
      test_flags_off_counters ]
