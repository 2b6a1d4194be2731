(* Coverage for the smaller supporting pieces: the Section 5 POSIX odds
   and ends, the BSD event-hash sleep/wakeup, the Linux environment
   emulation, the kernel clock, and the sockbuf. *)

open Testbed

(* ---- posix: getrusage / signal / select ---- *)

let test_getrusage () =
  let env = Posix.create_env () in
  Alcotest.(check int) "default time source" 0 (Posix.getrusage env).Posix.ru_time_ns;
  let t = ref 0 in
  Posix.set_time_source env (fun () -> !t);
  t := 123456;
  Alcotest.(check int) "installed time source" 123456 (Posix.getrusage env).Posix.ru_time_ns

let test_signal () =
  let env = Posix.create_env () in
  let got = ref [] in
  (* No handler: silently ignored, as the paper's null functions. *)
  Posix.raise_signal env 13;
  Posix.signal env 13 (Some (fun s -> got := s :: !got));
  Posix.raise_signal env 13;
  Posix.raise_signal env 13;
  Posix.signal env 13 None;
  Posix.raise_signal env 13;
  Alcotest.(check (list int)) "delivered while installed" [ 13; 13 ] !got;
  Alcotest.(check int) "count" 2 (Posix.signals_handled env)

let test_select () =
  let env = Posix.create_env () in
  (match Posix.select env ~read_fds:[ 99 ] ~timeout_ns:None with
  | Error Error.Badf -> ()
  | _ -> Alcotest.fail "select on a bad fd must EBADF");
  (* With a real fd: degenerate readiness. *)
  let dev = Mem_blkio.make ~bytes:(1 lsl 18) () in
  Posix.set_root env (Some (ok (Fs_glue.newfs dev)));
  let fd = ok (Posix.open_ env "/f" (Posix.o_creat lor Posix.o_rdwr)) in
  let slept = ref 0 in
  Posix.set_sleeper env (fun ns -> slept := ns);
  (match Posix.select env ~read_fds:[ fd ] ~timeout_ns:(Some 5000) with
  | Ok fds -> Alcotest.(check (list int)) "all ready" [ fd ] fds
  | Error e -> Alcotest.failf "select: %s" (Error.to_string e));
  Alcotest.(check int) "timeout honoured via the sleeper hook" 5000 !slept

(* ---- the BSD event-hash sleep/wakeup ---- *)

let test_bsd_sleep_hash () =
  let w = World.create () in
  let m = Machine.create ~name:"bsdsleep-pc" w in
  let sched = Thread.create_sched m in
  Thread.install sched;
  let q = Bsd_sleep.create () in
  let log = ref [] in
  (* Two sleepers on one channel, one on another; wakeup(chan) wakes ALL
     sleepers of that channel (BSD semantics), and only them. *)
  Thread.spawn sched ~name:"s1" (fun () ->
      Bsd_sleep.tsleep q ~channel:0xbeef;
      log := "s1" :: !log);
  Thread.spawn sched ~name:"s2" (fun () ->
      Bsd_sleep.tsleep q ~channel:0xbeef;
      log := "s2" :: !log);
  Thread.spawn sched ~name:"s3" (fun () ->
      Bsd_sleep.tsleep q ~channel:0xcafe;
      log := "s3" :: !log);
  Machine.kick m;
  World.run w;
  Alcotest.(check int) "two waiters on beef" 2 (Bsd_sleep.waiters q ~channel:0xbeef);
  ignore (Machine.at m 100 (fun () -> Bsd_sleep.wakeup q ~channel:0xbeef));
  World.run w;
  Alcotest.(check (list string)) "both beef sleepers woke, in order" [ "s1"; "s2" ]
    (List.rev !log);
  Alcotest.(check int) "cafe still waiting" 1 (Bsd_sleep.waiters q ~channel:0xcafe);
  (* A wakeup with no sleeper is LOST (BSD), unlike the latched record. *)
  Bsd_sleep.wakeup q ~channel:0xbeef;
  Alcotest.(check int) "no residue" 0 (Bsd_sleep.waiters q ~channel:0xbeef);
  ignore (Machine.at m 200 (fun () -> Bsd_sleep.wakeup q ~channel:0xcafe));
  World.run w;
  Alcotest.(check (list string)) "cafe woke last" [ "s1"; "s2"; "s3" ] (List.rev !log)

(* ---- Linux environment emulation ---- *)

let test_linux_current_emulation () =
  (* Manufactured on entry, restored on exit, nested entries stack. *)
  Alcotest.(check bool) "outside a component entry: error" true
    (try
       ignore (Linux_emu.current ());
       false
     with Invalid_argument _ -> true);
  Linux_emu.with_current (fun () ->
      let outer = Linux_emu.current () in
      Linux_emu.with_current (fun () ->
          let inner = Linux_emu.current () in
          Alcotest.(check bool) "nested entry gets a fresh proc" true
            (inner.Linux_emu.pid <> outer.Linux_emu.pid));
      let restored = Linux_emu.current () in
      Alcotest.(check int) "outer proc restored" outer.Linux_emu.pid restored.Linux_emu.pid)

let test_linux_wait_queues () =
  let w = World.create () in
  let m = Machine.create ~name:"lxwait-pc" w in
  let sched = Thread.create_sched m in
  Thread.install sched;
  let q = Linux_emu.wait_queue_head () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Thread.spawn sched (fun () ->
        Linux_emu.sleep_on q;
        incr woken)
  done;
  Machine.kick m;
  World.run w;
  Alcotest.(check int) "all asleep" 0 !woken;
  ignore (Machine.at m 10 (fun () -> Linux_emu.wake_up q));
  World.run w;
  Alcotest.(check int) "wake_up wakes every sleeper" 3 !woken

let test_jiffies () =
  let w = World.create () in
  let m = Machine.create ~name:"jiffies-pc" w in
  ignore (Machine.at m 50_000_000 (fun () -> ()));
  World.run w;
  Alcotest.(check int) "100 Hz jiffies" 5 (Linux_emu.jiffies m)

(* ---- kernel clock ---- *)

let test_kernel_clock () =
  let w = World.create () in
  let m = Machine.create ~name:"kclk-pc" w in
  let k = Kernel.create m in
  Kernel.start_clock ~hz:1000 k;
  ignore (Machine.at m 10_500_000 (fun () -> Timer_dev.stop (Kernel.timer k)));
  World.run w;
  Alcotest.(check bool) "ticked ~10 times at 1kHz over 10.5ms" true
    (Kernel.clock_ticks k >= 10 && Kernel.clock_ticks k <= 11)

let test_callout_cancel () =
  let w = World.create () in
  let m = Machine.create ~name:"callout-pc" w in
  let fired = ref false in
  Machine.run_in m (fun () ->
      let c = Kclock.callout_after ~ns:1000 (fun () -> fired := true) in
      Kclock.callout_cancel c);
  World.run w;
  Alcotest.(check bool) "cancelled callout never fires" false !fired

(* ---- sockbuf ---- *)

let test_sockbuf () =
  let sb = Sockbuf.create ~hiwat:100 in
  Alcotest.(check int) "space when empty" 100 (Sockbuf.space sb);
  Sockbuf.sbappend_bytes sb ~src:(Bytes.of_string "hello world") ~src_pos:0 ~len:11;
  Alcotest.(check int) "cc" 11 sb.Sockbuf.sb_cc;
  let dst = Bytes.create 5 in
  Sockbuf.copy_out sb ~off:6 ~len:5 ~dst ~dst_pos:0;
  Alcotest.(check string) "copy_out window" "world" (Bytes.to_string dst);
  Sockbuf.sbdrop sb 6;
  Alcotest.(check int) "cc after drop" 5 sb.Sockbuf.sb_cc;
  Sockbuf.copy_out sb ~off:0 ~len:5 ~dst ~dst_pos:0;
  Alcotest.(check string) "front advanced" "world" (Bytes.to_string dst);
  (* Range view shares cluster storage. *)
  Sockbuf.sbappend_bytes sb ~src:(Bytes.make 3000 'z') ~src_pos:0 ~len:3000;
  let m = Sockbuf.copy_range sb ~off:5 ~len:3000 in
  Alcotest.(check int) "range length" 3000 (Mbuf.m_length m);
  Sockbuf.sbdrop sb 3005;
  Alcotest.(check int) "fully drained" 0 sb.Sockbuf.sb_cc;
  Alcotest.(check bool) "chain released" true (sb.Sockbuf.sb_mb = None)

let suite =
  [ Alcotest.test_case "getrusage" `Quick test_getrusage;
    Alcotest.test_case "signal registry" `Quick test_signal;
    Alcotest.test_case "select (degenerate)" `Quick test_select;
    Alcotest.test_case "bsd event-hash sleep/wakeup" `Quick test_bsd_sleep_hash;
    Alcotest.test_case "linux current emulation" `Quick test_linux_current_emulation;
    Alcotest.test_case "linux wait queues" `Quick test_linux_wait_queues;
    Alcotest.test_case "jiffies" `Quick test_jiffies;
    Alcotest.test_case "kernel clock" `Quick test_kernel_clock;
    Alcotest.test_case "callout cancel" `Quick test_callout_cancel;
    Alcotest.test_case "sockbuf" `Quick test_sockbuf ]
