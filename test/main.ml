(* Every test ends in the testbed's one teardown, pass or fail. *)
let ends_torn_down (name, cases) =
  let torn_down f x = Fun.protect ~finally:Testbed.teardown (fun () -> f x) in
  name, List.map (fun (case, speed, f) -> case, speed, torn_down f) cases

let () =
  Alcotest.run "oskit" @@ List.map ends_torn_down
    [ "com", Test_com.suite;
      "machine", Test_machine.suite;
      "kern", Test_kern.suite;
      "lmm", Test_lmm.suite;
      "kalloc", Test_kalloc.suite;
      "amm", Test_amm.suite;
      "libc", Test_libc.suite;
      "memdebug", Test_memdebug.suite;
      "boot", Test_boot.suite;
      "fs", Test_fs.suite;
      "netparts", Test_netparts.suite;
      "net", Test_net.suite;
      "netem", Test_netem.suite;
      "sg", Test_sg.suite;
      "tso", Test_tso.suite;
      "tcp-behavior", Test_tcp_behavior.suite;
      "misc", Test_misc.suite;
      "vm", Test_vm.suite;
      "chardev", Test_chardev.suite;
      "posix-net", Test_posix_net.suite;
      "fatfs", Test_fatfs.suite;
      "misc2", Test_misc2.suite;
      "advanced", Test_advanced.suite;
      "asyncio", Test_asyncio.suite;
      "fastpath", Test_fastpath.suite;
      "longfat", Test_longfat.suite;
      "overload", Test_overload.suite;
      "smp", Test_smp.suite;
      "event", Test_event.suite;
      "http11", Test_http11.suite;
      "simcost", Test_simcost.suite ]
