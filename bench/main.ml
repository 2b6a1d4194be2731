(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation on the simulated testbed, plus the ablations
   DESIGN.md calls out.

   Sections (run all, or name them on the command line):
     table1     TCP bandwidth matrix (ttcp), plus the sg send column — paper Table 1
     table2     TCP 1-byte round-trip latency (rtcp)      — paper Table 2
     table3     component source-size inventory           — paper Table 3
     footprint  static size of the netcomputer config     — paper §6.2.5
     vmnet      TCP throughput measured from the VM       — paper §6.2.6
     alloc      allocator micro-benchmarks (Bechamel)     — paper §6.2.10
     glue       glue-overhead ablation                    — DESIGN.md A
     copies     per-packet copy accounting                — DESIGN.md B
     chaos      ttcp goodput under injected faults        — netem
     sgsmoke    scatter-gather send-path CI gate
     rtt        rtcp latency percentiles, receive fast path on/off
     http       event-driven vs threaded HTTP serving     — oskit_asyncio
     rttsmoke   receive fast-path CI gate (equivalence + strict RTT win)
     longfat    ttcp over RTT x loss grid, wscale/NewReno/autotune — long fat pipes
     longfatsmoke  long-fat-pipe CI gate (5x, autotune at 8 MB, persist)
     overload   SYN flood x alloc failure x Slowloris, legit-client goodput
     smp        multi-CPU scale-out: netisr-sharded reactor httpd, RSS steering
     event      kqueue O(ready) dispatch + timing-wheel O(due) curves
     eventsmoke event-core CI gate (kq+wheel httpd byte-exact)
     file       HTTP/1.1 keep-alive + sendfile content path: req/s and copies/req
     filesmoke  content-path CI gate (keep-alive win, zero warm copies, byte-exact)

   table1, table2, rtt, http, smp, longfat, overload, event and file each
   write their rows to BENCH_<section>.json and assert their gates on
   those same rows (Row declares each section's rows once).

   Network numbers come from the deterministic virtual-time simulation
   (they are not wall-clock); the allocator section uses Bechamel
   wall-clock measurement of the real data structures. *)

let section_header title = Printf.printf "\n=== %s ===\n%!" title

(* Scale knob: OSKIT_BENCH_BLOCKS overrides the per-run block count (the
   paper used 131072 blocks of 4096; the default here keeps a full matrix
   run to a couple of minutes of wall clock with identical shapes).
   Anything but a positive integer exits 2 before a section runs. *)
let blocks =
  match Sys.getenv_opt "OSKIT_BENCH_BLOCKS" with
  | None -> 2048
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n > 0 -> n
      | _ ->
          Printf.eprintf "OSKIT_BENCH_BLOCKS must be a positive integer, not %S\n" v;
          exit 2)

let blocksize = 4096

let exact ok = if ok then "yes" else "NO"

(* ---------------- Table 1 ---------------- *)

(* Send: [config] transmits to a native FreeBSD sink; receive: a native
   FreeBSD source transmits to [config].  The scatter-gather send is
   measured in a second pass, once the paper's table has printed. *)
type t1_row = {
  config : Netbench.config;
  send : Netbench.transfer_result;
  recv : Netbench.transfer_result;
  sg : Netbench.transfer_result Lazy.t;
}

let table1 () =
  section_header "Table 1: TCP bandwidth, ttcp (Mbit/s)";
  Printf.printf "workload: %d blocks x %d bytes = %.1f MB per run, 100 Mbps Ethernet\n\n"
    blocks blocksize
    (float_of_int (blocks * blocksize) /. 1048576.0);
  let transfer ?sg sender receiver =
    Netbench.transfer ?sg ~sender ~receiver ~blocks ~blocksize ()
  in
  let sg f r = f (Lazy.force r.sg) in
  let system = Row.str "system" ~t:("%-22s", "system") (fun r -> Netbench.config_name r.config)
  and send_mbit =
    Row.float "send_mbit" ~t:("%14.2f", "send (Mbit/s)") (fun r -> r.send.Netbench.mbit_sender)
  and recv_mbit =
    Row.float "recv_mbit" ~t:("%14.2f", "recv (Mbit/s)") (fun r -> r.recv.Netbench.mbit_e2e)
  and send_sg_mbit =
    Row.float "send_sg_mbit" ~t:("%14.2f", "send sg on") (sg (fun t -> t.Netbench.mbit_sender))
  and sg_sg_xmits =
    Row.int "sg_sg_xmits" ~t:("%10d", "sg xmits") (sg (fun t -> t.Netbench.sg_xmits))
  and sg_linearized_xmits =
    Row.int "sg_linearized_xmits" ~t:("%10d", "flattened")
      (sg (fun t -> t.Netbench.linearized_xmits))
  and sg_crossings_per_kpkt =
    Row.int "sg_crossings_per_kpkt" ~t:("%14d", "crossings/kpkt")
      (sg (fun t -> t.Netbench.crossings_per_kpkt))
  and sg_wire_per_xmit =
    Row.float "sg_wire_per_xmit" ~t:("%13.2f", "wire/xmit")
      (sg (fun t -> t.Netbench.wire_per_xmit))
  in
  let paper = [ system; send_mbit; recv_mbit ] in
  let rows =
    Row.table paper
      (fun config ->
        let send = transfer config Netbench.Freebsd in
        let recv = transfer Netbench.Freebsd config in
        { config; send; recv; sg = lazy (transfer ~sg:true config Netbench.Freebsd) })
      [ Netbench.Linux; Netbench.Freebsd; Netbench.Oskit ]
  in
  print_newline ();
  print_endline "paper's qualitative claims (Section 5):";
  print_endline "  - OSKit receives about as fast as FreeBSD (zero-copy skbuff->mbuf map)";
  print_endline "  - OSKit send is lower: mbuf chains are flattened into skbuffs (extra copy)";
  Printf.printf "\nwith --sg (scatter-gather transmit at the glue, Cost.sg_tx):\n";
  let sg_table =
    [ system; send_mbit; send_sg_mbit; sg_sg_xmits; sg_linearized_xmits;
      Row.show "%12d" "copies/kpkt" (sg (fun t -> t.Netbench.copies_per_kpkt));
      sg_crossings_per_kpkt; sg_wire_per_xmit ]
  in
  Row.header sg_table;
  List.iter (Row.print sg_table) rows;
  let at c = List.find (fun r -> r.config = c) rows in
  let oskit = Lazy.force (at Netbench.Oskit).sg in
  Printf.printf
    "\nOSKit --sg send is %.1f%% of native FreeBSD send (flatten copy eliminated:\n\
     %d sg xmits, %d linearized)\n"
    (100.0 *. oskit.Netbench.mbit_sender /. (at Netbench.Freebsd).send.Netbench.mbit_sender)
    oskit.Netbench.sg_xmits oskit.Netbench.linearized_xmits;
  let send f r = f r.send in
  Row.write_json "BENCH_table1.json"
    Row.[ jstr "bench" "table1"; jint "blocks" blocks; jint "blocksize" blocksize;
          jstr "unit" "Mbit/s" ]
    (Row.objs
       Row.
         [ system; send_mbit; recv_mbit;
           int "send_copies_per_kpkt" (send (fun t -> t.Netbench.copies_per_kpkt));
           int "send_crossings_per_kpkt" (send (fun t -> t.Netbench.crossings_per_kpkt));
           int "send_sg_xmits" (send (fun t -> t.Netbench.sg_xmits));
           int "send_linearized_xmits" (send (fun t -> t.Netbench.linearized_xmits));
           int "send_checksummed_bytes" (send (fun t -> t.Netbench.checksummed_bytes));
           send_sg_mbit; sg_sg_xmits; sg_linearized_xmits; sg_crossings_per_kpkt;
           sg_wire_per_xmit ]
       rows);
  (* One tcp_output's segment train crosses the glue in one push, so the
     sg send path crosses less often per packet than the per-frame
     default. *)
  Row.check "table1: OSKit sg send crosses the glue no less often than the default send"
    (fun rows ->
      let r = List.find (fun r -> r.config = Netbench.Oskit) rows in
      sg (fun t -> t.Netbench.crossings_per_kpkt) r < r.send.Netbench.crossings_per_kpkt)
    rows;
  (* The card cuts the FreeBSD stack's tcp_output bursts, on both
     attachments, into several wire frames per driver transmit; the Linux
     inet stack asks for no offload. *)
  Row.check "table1: sg send did not cut bursts on a FreeBSD-stack row, or cut one on Linux"
    (List.for_all (fun r ->
         let w = sg (fun t -> t.Netbench.wire_per_xmit) r in
         match r.config with
         | Netbench.Linux -> w = 1.0
         | Netbench.Freebsd | Netbench.Oskit -> w > 1.0))
    rows

(* ---------------- Table 2 ---------------- *)

let table2 () =
  section_header "Table 2: TCP 1-byte round-trip time, rtcp (usec)";
  let fields =
    Row.
      [ str "system" ~t:("%-22s", "system") (fun (c, _) -> Netbench.config_name c);
        float "rtt_us" ~t:("%12.1f", "RTT (usec)") snd ]
  in
  let rows =
    Row.table fields
      (fun config -> config, (Netbench.dist config ~trips:200).Netbench.rtt_mean_us)
      [ Netbench.Linux; Netbench.Freebsd; Netbench.Oskit ]
  in
  print_newline ();
  print_endline "paper's qualitative claim: the OSKit imposes significant latency";
  print_endline "overhead vs FreeBSD — glue-code crossings, not data copies (1-byte)";
  Row.write_json "BENCH_table2.json"
    Row.[ jstr "bench" "table2"; jint "trips" 200; jstr "unit" "usec" ]
    (Row.objs fields rows)

(* ---------------- Table 3 ---------------- *)

let table3 () =
  section_header "Table 3: filtered source sizes of the OSKit components";
  let lib_dir =
    List.find_opt Sys.file_exists [ "lib"; "../lib"; "../../lib" ]
    |> Option.value ~default:"lib"
  in
  if Sys.file_exists lib_dir then Loc_table.print_table ~lib_dir
  else print_endline "(source tree not found from this working directory)"

(* ---------------- footprint (Section 6.2.5) ---------------- *)

let dir_object_bytes dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then 0
  else begin
    let total = ref 0 in
    let rec walk d =
      Array.iter
        (fun entry ->
          let path = Filename.concat d entry in
          if Sys.is_directory path then walk path
          else if Filename.check_suffix entry ".o" || Filename.check_suffix entry ".cmx"
          then total := !total + (Unix.stat path).Unix.st_size)
        (Sys.readdir d)
    in
    (try walk dir with Sys_error _ -> ());
    !total
  end

let footprint () =
  section_header "Section 6.2.5: static footprint of the network-computer configuration";
  let build_lib comp = Printf.sprintf "_build/default/lib/%s" comp in
  let groups =
    [ "drivers (linux_dev + fdev)", [ "linux_dev"; "fdev" ];
      "networking (freebsd_net)", [ "freebsd_net" ];
      "VM + bindings (vm)", [ "vm" ];
      "C library + POSIX (libc)", [ "libc" ];
      "kernel support (kern/boot/machine)", [ "kern"; "boot"; "machine" ];
      "memory managers (lmm/amm)", [ "lmm"; "amm" ];
      "COM + glue core (com/core)", [ "com"; "core" ] ]
  in
  let rows =
    List.map
      (fun (label, comps) ->
        label, List.fold_left (fun a c -> a + dir_object_bytes (build_lib c)) 0 comps)
      groups
  in
  if List.for_all (fun (_, b) -> b = 0) rows then
    print_endline "(no build artifacts found — run from the repository root after dune build)"
  else begin
    Printf.printf "%-40s %10s\n" "component group" "KB";
    let total = ref 0 in
    List.iter
      (fun (label, bytes) ->
        total := !total + bytes;
        Printf.printf "%-40s %10.1f\n" label (float_of_int bytes /. 1024.0))
      rows;
    Printf.printf "%-40s %10.1f\n" "total (cf. paper: 412KB incl. 121KB net)"
      (float_of_int !total /. 1024.0);
    print_endline "\nmodularity check: a no-file-system build omits netbsd_fs entirely:";
    Printf.printf "%-40s %10.1f\n" "netbsd_fs (not linked in this config)"
      (float_of_int (dir_object_bytes (build_lib "netbsd_fs")) /. 1024.0)
  end

(* ---------------- vmnet (Section 6.2.6) ---------------- *)

let vmnet () =
  section_header "Section 6.2.6: TCP throughput measured from the bytecode VM (OSKit config)";
  let bytes = blocks * blocksize in
  let recv = Netbench.vm_throughput ~direction:`Receive ~bytes in
  let send = Netbench.vm_throughput ~direction:`Send ~bytes in
  Printf.printf "VM receive: %6.2f Mbit/s   (paper: 78 Mbit/s on 100 Mbps Ethernet)\n" recv;
  Printf.printf "VM send:    %6.2f Mbit/s   (paper: 59 Mbit/s — \"lower due to the extra copy\")\n"
    send

(* ---------------- alloc (Section 6.2.10, Bechamel) ---------------- *)

let alloc () =
  section_header "Section 6.2.10: allocator micro-benchmarks (wall clock, Bechamel)";
  let open Bechamel in
  (* A 4 MB LMM, one free region. *)
  let fresh_lmm () =
    let lmm = Lmm.create () in
    Lmm.add_region lmm ~min:0 ~size:(1 lsl 22) ~flags:0 ~pri:0;
    Lmm.add_free lmm ~addr:0 ~size:(1 lsl 22);
    lmm
  in
  (* The deficiency the paper reports: the LMM is built for flexibility,
     not common-case speed; a conventional high-level allocator (the BSD
     bucket allocator here) is much faster for small hot-path blocks. *)
  let lmm_test =
    let lmm = fresh_lmm () in
    Test.make ~name:"lmm alloc+free 128B"
      (Staged.stage (fun () ->
           match Lmm.alloc lmm ~size:128 ~flags:0 with
           | Some addr -> Lmm.free lmm ~addr ~size:128
           | None -> assert false))
  in
  let pool_test =
    let lmm = fresh_lmm () in
    let pool =
      Bsd_malloc.create ~client_alloc:(fun size ->
          Lmm.alloc_aligned lmm ~size ~flags:0 ~align_bits:12 ~align_ofs:0)
    in
    Test.make ~name:"bsd bucket alloc+free 128B"
      (Staged.stage (fun () ->
           match Bsd_malloc.malloc pool 128 with
           | Some addr -> Bsd_malloc.free pool addr
           | None -> assert false))
  in
  let libc_test =
    Test.make ~name:"libc malloc+free 128B"
      (Staged.stage (fun () -> Malloc.free (Malloc.malloc 128)))
  in
  let amm_test =
    let amm = Amm.create ~lo:0 ~hi:(1 lsl 22) ~flags:Amm.free in
    Test.make ~name:"amm allocate+deallocate 128B"
      (Staged.stage (fun () ->
           match Amm.allocate amm ~size:128 () with
           | Some addr -> Amm.deallocate amm ~addr ~size:128
           | None -> assert false))
  in
  let kalloc_test =
    let k = Kalloc.create (fresh_lmm ()) in
    Test.make ~name:"kalloc alloc+free 128B"
      (Staged.stage (fun () ->
           match Kalloc.alloc k ~size:128 with
           | Some addr -> Kalloc.free k addr
           | None -> assert false))
  in
  let tests =
    Test.make_grouped ~name:"allocators"
      [ lmm_test; pool_test; libc_test; amm_test; kalloc_test ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) results [] in
  List.iter
    (fun name ->
      let est = Hashtbl.find results name in
      match Analyze.OLS.estimates est with
      | Some (t :: _) -> Printf.printf "%-34s %10.1f ns/op\n" name t
      | _ -> Printf.printf "%-34s  (no estimate)\n" name)
    (List.sort compare names);
  (* Head-to-head on a fragmented heap — the state a long-running kernel
     reaches.  256 pinned 16-byte live blocks leave 256 non-coalescable
     16-byte holes at the front of the LMM's address-sorted free list;
     every first-fit alloc of anything larger walks all of them, and every
     free walks them again to find its insertion point.  The size-class
     pool serves the same requests O(1) from per-slab freelists. *)
  print_endline "\nraw LMM vs size-class pool on a fragmented heap (256 x 16B holes):";
  Printf.printf "%10s %14s %14s %10s\n" "size (B)" "lmm (ns/op)" "kalloc (ns/op)" "speedup";
  let holes = 256 in
  let iters = 50_000 in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  let fragmented_lmm () =
    let lmm = fresh_lmm () in
    let addrs =
      Array.init (2 * holes) (fun _ ->
          match Lmm.alloc lmm ~size:16 ~flags:0 with Some a -> a | None -> assert false)
    in
    Array.iteri (fun i a -> if i land 1 = 0 then Lmm.free lmm ~addr:a ~size:16) addrs;
    lmm
  in
  List.iter
    (fun size ->
      let lmm = fragmented_lmm () in
      let lmm_ns =
        time (fun () ->
            for _ = 1 to iters do
              match Lmm.alloc lmm ~size ~flags:0 with
              | Some a -> Lmm.free lmm ~addr:a ~size
              | None -> assert false
            done)
      in
      let k = Kalloc.create (fragmented_lmm ()) in
      let kalloc_ns =
        time (fun () ->
            for _ = 1 to iters do
              match Kalloc.alloc k ~size with
              | Some a -> Kalloc.free k a
              | None -> assert false
            done)
      in
      Printf.printf "%10d %14.1f %14.1f %9.1fx\n%!" size lmm_ns kalloc_ns
        (lmm_ns /. kalloc_ns))
    [ 32; 64; 128; 256 ];
  (* One allocator's class stats after mixed-size churn: a kmem-cache
     report. *)
  let k = Kalloc.create (fresh_lmm ()) in
  let ws = Array.init holes (fun i ->
      match Kalloc.alloc k ~size:(16 lsl (i land 3)) with
      | Some a -> a
      | None -> assert false)
  in
  Array.iter (fun a -> Kalloc.free k a) ws;
  print_newline ();
  Format.printf "%a@." Kalloc.pp k;
  print_endline "paper's claim: \"a significant amount of time is spent in memory";
  print_endline "allocation ... a more conventional high-level allocator would be more";
  print_endline "appropriate, possibly layered on top of the OSKit's low-level one.\"";
  print_endline "the size-class allocator above is that layering (DESIGN.md, 6.2.10)"

(* ---------------- ablations ---------------- *)

let glue () =
  section_header "Ablation A: glue-crossing cost vs OSKit throughput and latency";
  let fields =
    Row.
      [ show "%-28d" "glue_crossing_cycles" (fun (cycles, _, _) -> cycles);
        show "%14.2f" "send (Mbit/s)" (fun (_, t, _) -> t.Netbench.mbit_sender);
        show "%12.1f" "RTT (usec)" (fun (_, _, rtt) -> rtt) ]
  in
  ignore
    (Row.table fields
       (fun cycles ->
         Cost.reset_config ();
         Cost.config.Cost.glue_crossing_cycles <- cycles;
         let t =
           Netbench.transfer ~sender:Netbench.Oskit ~receiver:Netbench.Freebsd
             ~blocks:(blocks / 2) ~blocksize ()
         in
         cycles, t, (Netbench.dist Netbench.Oskit ~trips:100).Netbench.rtt_mean_us)
       [ 0; 500; 1500; 3000; 6000 ]);
  Cost.reset_config ();
  print_endline "\n(cycles=0 isolates the copy cost; the remainder is \"the price we pay";
  print_endline " for modularity and separability\", Section 5)"

let copies () =
  section_header "Ablation B: per-packet copy and crossing accounting";
  let fields =
    Row.
      [ show "%-28s" "configuration" fst;
        show "%18d" "copies/1000 pkts" (fun (_, t) -> t.Netbench.copies_per_kpkt);
        show "%18d" "crossings/1000 pkts" (fun (_, t) -> t.Netbench.crossings_per_kpkt) ]
  in
  ignore
    (Row.table fields
       (fun (label, sender, receiver) ->
         label, Netbench.transfer ~sender ~receiver ~blocks:(blocks / 2) ~blocksize ())
       [ "FreeBSD -> FreeBSD", Netbench.Freebsd, Netbench.Freebsd;
         "OSKit -> FreeBSD (send path)", Netbench.Oskit, Netbench.Freebsd;
         "FreeBSD -> OSKit (recv path)", Netbench.Freebsd, Netbench.Oskit;
         "Linux -> Linux", Netbench.Linux, Netbench.Linux ]);
  print_endline "\nthe send path shows the extra flattening copy; the receive path does not"

(* ---------------- chaos: goodput under injected loss ---------------- *)

let chaos () =
  section_header "Chaos: ttcp goodput vs injected loss (netem, seed 42)";
  Printf.printf
    "each run: %d blocks x %d bytes to a native FreeBSD sink; byte-exact\n\
     means every payload byte arrived once, in order, with the right value;\n\
     sg on is the modern transmit path: the card cuts each tcp_output burst\n\n"
    blocks blocksize;
  let fields =
    Row.
      [ show "%-10s" "sender" (fun ((sender, _, _), _) -> Netbench.config_name sender);
        show "%4s" "sg" (fun ((_, sg, _), _) -> Row.on_off sg);
        show "%6.1f%%" "loss" (fun ((_, _, loss), _) -> loss *. 100.0);
        show "%14.2f" "goodput (Mbit/s)" (fun (_, r) -> r.Netbench.goodput_mbit);
        show "%9d" "rexmits" (fun (_, r) -> r.Netbench.chaos_rexmits);
        show "%9d" "drops" (fun (_, r) -> r.Netbench.wire_dropped);
        show "%11s" "byte-exact" (fun (_, r) -> exact r.Netbench.byte_exact) ]
  in
  ignore
    (Row.table fields
       ~checks:
         [ Row.each "chaos: transfer was not byte-exact" (fun (_, r) -> r.Netbench.byte_exact) ]
       (fun ((sender, sg), loss) ->
         ( (sender, sg, loss),
           Netbench.chaos_transfer ~seed:42 ~loss ~sg ~sender ~receiver:Netbench.Freebsd
             ~blocks ~blocksize () ))
       Row.(([ Netbench.Freebsd, false; Netbench.Oskit, false; Netbench.Linux, false;
               Netbench.Freebsd, true; Netbench.Oskit, true ])
            *** [ 0.0; 0.005; 0.01; 0.02; 0.05 ]));
  print_newline ();
  print_endline "retransmissions recover every loss: goodput degrades, correctness doesn't"

(* ---------------- sgsmoke: CI gate for the scatter-gather send path ---------------- *)

let sgsmoke () =
  section_header "SG smoke: scatter-gather send path sanity (fails loudly on regression)";
  let dflt =
    Netbench.transfer ~sender:Netbench.Oskit ~receiver:Netbench.Freebsd ~blocks ~blocksize ()
  in
  let sg =
    Netbench.transfer ~sg:true ~sender:Netbench.Oskit ~receiver:Netbench.Freebsd ~blocks
      ~blocksize ()
  in
  Printf.printf "OSKit -> FreeBSD send: default %.2f Mbit/s, sg %.2f Mbit/s\n"
    dflt.Netbench.mbit_sender sg.Netbench.mbit_sender;
  Printf.printf "default: %d linearized xmits; sg: %d sg xmits, %d linearized\n%!"
    dflt.Netbench.linearized_xmits sg.Netbench.sg_xmits sg.Netbench.linearized_xmits;
  if sg.Netbench.mbit_sender < dflt.Netbench.mbit_sender then
    failwith "sgsmoke: sg send slower than default send";
  if dflt.Netbench.linearized_xmits = 0 then
    failwith "sgsmoke: default path no longer flattens (baseline drifted)";
  if sg.Netbench.linearized_xmits <> 0 then
    failwith "sgsmoke: flatten copies remain on the sg path";
  if sg.Netbench.sg_xmits = 0 then failwith "sgsmoke: sg path transmitted nothing via iovec";
  Printf.printf "\n%-7s %16s %9s %11s\n" "loss" "goodput (Mbit/s)" "rexmits" "byte-exact";
  List.iter
    (fun loss ->
      let r =
        Netbench.chaos_transfer ~seed:42 ~loss ~sg:true ~sender:Netbench.Oskit
          ~receiver:Netbench.Freebsd ~blocks ~blocksize ()
      in
      Printf.printf "%6.1f%% %16.2f %9d %11s\n%!" (loss *. 100.0) r.Netbench.goodput_mbit
        r.Netbench.chaos_rexmits
        (exact r.Netbench.byte_exact);
      if not r.Netbench.byte_exact then
        failwith "sgsmoke: sg transfer under loss was not byte-exact")
    [ 0.0; 0.01; 0.05 ];
  print_endline "\nsg send >= default send; zero flatten copies; byte-exact under loss"

(* ---------------- http: asyncio concurrency experiment ---------------- *)

let http_json, http_table =
  let open Httpbench in
  let stack = Row.str "stack" ~t:("%-9s", "stack") (fun r -> Rig.config_name r.r_config)
  and mode = Row.str "mode" ~t:("%-8s", "mode") (fun r -> Rig.mode_name r.r_mode)
  and clients = Row.int "clients" ~t:("%8d", "clients") (fun r -> r.r_clients)
  and rps = Row.float "rps" ~t:("%10.0f", "req/s") (fun r -> r.r_rps)
  and p50 = Row.float "p50_us" ~t:("%10.1f", "p50 (us)") (fun r -> r.r_p50_us)
  and p99 = Row.float "p99_us" ~t:("%10.1f", "p99 (us)") (fun r -> r.r_p99_us)
  and peak = Row.int "peak_active" ~t:("%6d", "peak") (fun r -> r.r_peak_active)
  and shed = Row.int "shed" ~t:("%6d", "shed") (fun r -> r.r_shed)
  and overflow =
    Row.int "listen_overflow" ~t:("%9d", "overflow") (fun r -> r.r_listen_overflow)
  in
  ( Row.
      [ stack; mode; clients;
        int "requests" (fun r -> r.r_requests);
        float "duration_ms" (fun r -> r.r_duration_ms);
        rps; p50; p99; peak;
        int "accepted" (fun r -> r.r_accepted);
        int "responses" (fun r -> r.r_responses);
        shed; overflow;
        int "protocol_errors" (fun r -> r.r_protocol_errors);
        int "mismatches" (fun r -> r.r_mismatches);
        int "reactor_sleeps" (fun r -> r.r_reactor_sleeps);
        int "reactor_spurious" (fun r -> r.r_reactor_spurious) ],
    [ stack; mode; clients; rps; p50; p99; peak; overflow; shed ] )

let http_checks =
  Httpbench.
    [ Row.each "http: response was not byte-exact" (fun r -> r.r_mismatches = 0);
      Row.each "http: server saw protocol errors" (fun r -> r.r_protocol_errors = 0);
      Row.each "http: not every request got a 200" (fun r -> r.r_responses = r.r_requests) ]

let http_configs = [ Rig.Freebsd_com; Rig.Linux_com ]

let http_at rows config clients mode =
  List.find
    (fun r ->
      r.Httpbench.r_config = config && r.Httpbench.r_clients = clients
      && r.Httpbench.r_mode = mode)
    rows

(* At 256 clients the reactor holds >= 4x the threaded concurrency; the
   64-client pair is the former httpsmoke run. *)
let http_gates =
  List.concat_map
    (fun config ->
      Httpbench.
        [ Row.check "http: reactor sustained < 4x the threaded concurrency" (fun rows ->
              (http_at rows config 256 Rig.Reactor).r_peak_active
              >= 4 * (http_at rows config 256 Rig.Threads).r_peak_active);
          Row.check "httpsmoke: reactor slower than thread-per-connection" (fun rows ->
              (http_at rows config 64 Rig.Reactor).r_rps
              >= (http_at rows config 64 Rig.Threads).r_rps) ])
    http_configs

let http () =
  section_header "HTTP: event-driven vs thread-per-connection at equal memory (oskit_asyncio)";
  Printf.printf
    "file: %d B from memfs; RAM budget %d KB -> %d handler threads (32KB stack)\n\
     vs %d reactor connections (2KB state); listen backlog %d; %d reqs/client\n\n"
    Httpbench.file_bytes (Httpbench.ram_budget / 1024) Httpbench.max_threads
    Httpbench.max_conns Httpbench.backlog 2;
  let rows =
    Row.table ~checks:http_checks http_table
      (fun (config, (clients, mode)) -> Httpbench.run ~config ~mode ~clients ())
      Row.(http_configs *** [ 1; 4; 16; 64; 256 ] *** [ Rig.Threads; Rig.Reactor ])
  in
  print_newline ();
  List.iter
    (fun config ->
      let re = http_at rows config 256 Rig.Reactor
      and th = http_at rows config 256 Rig.Threads in
      Printf.printf
        "%s @256 clients: reactor held %d concurrent connections vs %d threaded\n\
        \  (%.1fx at the same %dKB budget); reactor %.0f req/s vs threaded %.0f\n"
        (Rig.config_name config) re.Httpbench.r_peak_active th.Httpbench.r_peak_active
        (float_of_int re.Httpbench.r_peak_active
        /. float_of_int (max 1 th.Httpbench.r_peak_active))
        (Httpbench.ram_budget / 1024) re.Httpbench.r_rps th.Httpbench.r_rps)
    http_configs;
  List.iter (fun gate -> gate rows) http_gates;
  print_endline "\nsame server component, same COM interfaces, both stacks; the threaded";
  print_endline "shape hits its memory cap and the listen backlog does the dropping";
  Row.write_json "BENCH_http.json"
    Row.[ jstr "bench" "http"; jint "file_bytes" Httpbench.file_bytes;
          jint "ram_budget" Httpbench.ram_budget; jint "max_threads" Httpbench.max_threads;
          jint "max_conns" Httpbench.max_conns; jint "backlog" Httpbench.backlog;
          jstr "unit" "req/s" ]
    (Row.objs http_json rows)

(* ---------------- rtt: the Table 2 gap, attacked ---------------- *)

(* Both switchable receive-side fast-path layers at once; default off
   everywhere else, so only these two sections ever see them.  The third
   layer, the hashed PCB demux, is always on. *)
let fast_flags on f =
  Cost.with_config
    (fun c ->
      c.Cost.tcp_fastpath <- on;
      c.Cost.rx_batch <- (if on then 8 else 1))
    f

let rtt () =
  section_header "RTT distribution: rtcp percentiles, default vs receive fast path";
  print_endline
    "fast path = header prediction + batched RX over the hashed PCB demux;\n\
     flags off reproduces Table 2 exactly, flags on closes the gap toward FreeBSD\n";
  let trips = 200 in
  let fields =
    Row.
      [ str "system" ~t:("%-10s", "system") (fun ((c, _), _) -> Netbench.config_name c);
        str "fastpath" ~t:("%-9s", "fastpath") (fun ((_, on), _) -> on_off on);
        float "mean_us" ~t:("%10.1f", "mean (us)") (fun (_, r) -> r.Netbench.rtt_mean_us);
        float "p50_us" ~t:("%9.1f", "p50") (fun (_, r) -> r.Netbench.rtt_p50_us);
        float "p95_us" ~t:("%9.1f", "p95") (fun (_, r) -> r.Netbench.rtt_p95_us);
        float "p99_us" ~t:("%9.1f", "p99") (fun (_, r) -> r.Netbench.rtt_p99_us);
        int "fastpath_hits" ~t:("%8d", "fp hits") (fun (_, r) -> r.Netbench.rtt_fastpath_hits);
        int "fastpath_fallbacks" ~t:("%9d", "fallback")
          (fun (_, r) -> r.Netbench.rtt_fastpath_fallbacks);
        int "pcb_cache_hits" ~t:("%8d", "pcb hit")
          (fun (_, r) -> r.Netbench.rtt_pcb_cache_hits);
        int "pcb_cache_misses" ~t:("%9d", "pcb miss")
          (fun (_, r) -> r.Netbench.rtt_pcb_cache_misses);
        int "rx_polls" (fun (_, r) -> r.Netbench.rtt_rx_polls);
        int "rx_frames" (fun (_, r) -> r.Netbench.rtt_rx_frames) ]
  in
  let rows =
    Row.table fields
      (fun (config, fastpath) -> (config, fastpath), Netbench.dist ~fastpath config ~trips)
      Row.([ Netbench.Linux; Netbench.Freebsd; Netbench.Oskit ] *** [ false; true ])
  in
  let mean config fastpath = (List.assoc (config, fastpath) rows).Netbench.rtt_mean_us in
  let gap_off = mean Netbench.Oskit false -. mean Netbench.Freebsd false in
  let gap_on = mean Netbench.Oskit true -. mean Netbench.Freebsd false in
  Printf.printf
    "\nOSKit vs native FreeBSD, flags off: +%.1f us per round trip (Table 2's gap)\n\
     OSKit fast path vs the same baseline: +%.1f us (%.0f%% of the gap closed)\n"
    gap_off gap_on
    (100.0 *. (gap_off -. gap_on) /. gap_off);
  (* The same flags under the PR-4 concurrency workload: tail latency on the
     OSKit configuration, where receive frames actually cross the glue. *)
  let http_run on =
    fast_flags on (fun () ->
        Httpbench.run ~config:Rig.Oskit_com ~mode:Rig.Reactor ~clients:128 ())
  in
  let hoff = http_run false in
  let hon = http_run true in
  let polls = Cost.counters.Cost.rx_polls in
  let frames = Cost.counters.Cost.rx_batched_frames in
  Printf.printf
    "\nhttp, OSKit config, reactor, 128 clients:\n\
    \  p50 %.1f -> %.1f us, p99 %.1f -> %.1f us\n\
    \  batched RX: %d frames over %d polls (%.2f frames/poll)\n"
    hoff.Httpbench.r_p50_us hon.Httpbench.r_p50_us hoff.Httpbench.r_p99_us
    hon.Httpbench.r_p99_us frames polls
    (float_of_int frames /. float_of_int (max 1 polls));
  (* The former rttsmoke batching gate: the fast-path run must coalesce
     frames, more than one per glue crossing on average. *)
  List.iter (fun check -> check [ hon ]) http_checks;
  if polls = 0 then failwith "rttsmoke: batched receive path never polled";
  if frames <= polls then failwith "rttsmoke: mean frames per poll not > 1";
  Row.write_json "BENCH_rtt.json"
    Row.[ jstr "bench" "rtt"; jint "trips" trips; jstr "unit" "usec";
          jfloat "http128_p50_us_default" hoff.Httpbench.r_p50_us;
          jfloat "http128_p50_us_fastpath" hon.Httpbench.r_p50_us;
          jfloat "http128_p99_us_default" hoff.Httpbench.r_p99_us;
          jfloat "http128_p99_us_fastpath" hon.Httpbench.r_p99_us;
          jint "http128_rx_polls" polls; jint "http128_rx_frames" frames ]
    (Row.objs fields rows)

(* ---------------- rttsmoke: CI gate for the receive fast path ---------------- *)

let rttsmoke () =
  section_header "RTT smoke: receive fast path gates (fails loudly on regression)";
  (* 1) equivalence: everything on, ttcp clean and under netem loss must
     deliver the position-dependent payload byte-exactly. *)
  List.iter
    (fun (sender, loss) ->
      let r =
        fast_flags true (fun () ->
            Netbench.chaos_transfer ~seed:42 ~loss ~sender ~receiver:Netbench.Freebsd
              ~blocks ~blocksize ())
      in
      Printf.printf "fastpath ttcp %-8s loss %4.1f%%: %8.2f Mbit/s, byte-exact %s\n%!"
        (Netbench.config_name sender) (loss *. 100.0) r.Netbench.goodput_mbit
        (exact r.Netbench.byte_exact);
      if not r.Netbench.byte_exact then
        failwith "rttsmoke: fast path broke byte-exactness")
    [ Netbench.Oskit, 0.0; Netbench.Oskit, 0.01;
      Netbench.Linux, 0.0; Netbench.Linux, 0.01 ];
  (* 2) the win, with the machinery provably engaged: strictly lower mean
     RTT; prediction hits and pcb-cache hits nonzero; zero fallbacks on a
     clean in-order run (every established-state segment must predict). *)
  let dflt = Netbench.dist ~fastpath:false Netbench.Oskit ~trips:100 in
  let fast = Netbench.dist ~fastpath:true Netbench.Oskit ~trips:100 in
  Printf.printf
    "rtcp OSKit: mean %.1f us default, %.1f us fast\n\
    \  (prediction hits %d, fallbacks %d, pcb-cache hits %d / misses %d)\n%!"
    dflt.Netbench.rtt_mean_us fast.Netbench.rtt_mean_us fast.Netbench.rtt_fastpath_hits
    fast.Netbench.rtt_fastpath_fallbacks fast.Netbench.rtt_pcb_cache_hits
    fast.Netbench.rtt_pcb_cache_misses;
  if dflt.Netbench.rtt_fastpath_hits <> 0 then
    failwith "rttsmoke: default run took the fast path (flag gating broken)";
  if fast.Netbench.rtt_mean_us >= dflt.Netbench.rtt_mean_us then
    failwith "rttsmoke: fast path did not reduce mean RTT";
  if fast.Netbench.rtt_fastpath_hits = 0 then
    failwith "rttsmoke: zero header-prediction hits";
  if fast.Netbench.rtt_fastpath_fallbacks <> 0 then
    failwith "rttsmoke: prediction fallbacks on a clean in-order run";
  if fast.Netbench.rtt_pcb_cache_hits = 0 then failwith "rttsmoke: zero pcb-cache hits";
  print_endline "\nbyte-exact with everything on; RTT strictly lower"

(* ---------------- longfat: RTT x loss with scaled windows ---------------- *)

let longfat_modes =
  [ "default", Netbench.Lf_default;
    "manual-bdp", Netbench.Lf_manual;
    "autotune", Netbench.Lf_autotune ]

(* Enough bytes to amortize slow start at the given BDP; lossy cells get a
   smaller transfer (the Linux receiver keeps no out-of-order queue, so
   each loss replays go-back-N at one frame per RTT — see DESIGN.md). *)
let longfat_bytes ~rtt_ns ~loss =
  let bdp = rtt_ns / 80 in
  if loss = 0.0 then max (2 * 1024 * 1024) (25 * bdp)
  else max (1024 * 1024) (4 * bdp)

type lf_row = {
  lf_config : Netbench.config;
  rtt_ms : float;
  loss : float;
  buffers : string;
  bytes : int;
  lf : Netbench.longfat_result;
}

let longfat_fields =
  Row.
    [ str "system" ~t:("%-8s", "stack") (fun r -> Netbench.config_name r.lf_config);
      float "rtt_ms" ~t:("%5.1fms", "rtt") (fun r -> r.rtt_ms);
      float "loss" (fun r -> r.loss);
      show "%5.1f%%" "loss" (fun r -> r.loss *. 100.0);
      str "buffers" ~t:("%-11s", "buffers") (fun r -> r.buffers);
      int "bytes" (fun r -> r.bytes);
      float "mbit" ~t:("%10.2f", "Mbit/s") (fun r -> r.lf.Netbench.lf_mbit);
      int "rexmits" ~t:("%9d", "rexmits") (fun r -> r.lf.Netbench.lf_rexmits);
      int "rcv_buf" ~t:("%10d", "rcv buf") (fun r -> r.lf.Netbench.lf_rcv_buf);
      str "byte_exact" (fun r -> if r.lf.Netbench.lf_byte_exact then "yes" else "no");
      show "%11s" "byte-exact" (fun r -> exact r.lf.Netbench.lf_byte_exact) ]

let longfat_configs = [ Netbench.Freebsd; Netbench.Linux ]

let longfat_at rows config rtt_ms loss buffers =
  (List.find
     (fun r ->
       r.lf_config = config && r.rtt_ms = rtt_ms && r.loss = loss && r.buffers = buffers)
     rows)
    .lf

(* The long-fat-pipe claims, asserted at generation time so the committed JSON
   can't drift from them: at 50 ms / 0% loss, scaled windows buy >= 5x the
   seed throughput, and autotuning lands within 10% of the hand-sized
   buffers — in both stacks.  The 10 ms / 1% autotune cells are the former
   longfatsmoke lossy run. *)
let longfat_gates =
  List.concat_map
    (fun config ->
      let mbit rows buffers = (longfat_at rows config 50.0 0.0 buffers).Netbench.lf_mbit in
      let lossy rows = longfat_at rows config 10.0 0.01 "autotune" in
      [ Row.check "longfat: scaled windows under 5x the seed throughput at 50ms" (fun rows ->
            mbit rows "manual-bdp" >= 5.0 *. mbit rows "default");
        Row.check "longfat: autotuned throughput under 90% of manual BDP sizing" (fun rows ->
            mbit rows "autotune" >= 0.9 *. mbit rows "manual-bdp");
        Row.check "longfatsmoke: lossy scaled-window transfer not byte-exact" (fun rows ->
            (lossy rows).Netbench.lf_byte_exact);
        Row.check "longfatsmoke: netem loss produced no retransmissions" (fun rows ->
            (lossy rows).Netbench.lf_rexmits <> 0) ])
    longfat_configs

let longfat () =
  section_header
    "Longfat: ttcp over stretched wires (wscale + NewReno + buffer autotuning)";
  print_endline
    "default = seed config (16-bit windows, fixed buffers); manual-bdp =\n\
     wscale on, both ends hand-sized to 2x BDP; autotune = wscale on, the\n\
     stacks grow their own buffers.  100 Mbps wire, netem seed 42.\n";
  let rows =
    Row.table longfat_fields
      ~checks:
        [ Row.each "longfat: transfer was not byte-exact" (fun r ->
              r.lf.Netbench.lf_byte_exact) ]
      (fun (lf_config, (rtt_ms, (loss, (buffers, bufmode)))) ->
        let rtt_ns = int_of_float (rtt_ms *. 1e6) in
        let bytes = longfat_bytes ~rtt_ns ~loss in
        { lf_config; rtt_ms; loss; buffers; bytes;
          lf =
            Netbench.longfat_transfer ~seed:42 ~loss ~config:lf_config ~rtt_ns ~bufmode ~bytes
              () })
      Row.(longfat_configs *** [ 0.1; 1.0; 10.0; 50.0 ] *** [ 0.0; 0.01; 0.03 ]
           *** longfat_modes)
  in
  List.iter
    (fun config ->
      let mbit buffers = (longfat_at rows config 50.0 0.0 buffers).Netbench.lf_mbit in
      let dflt = mbit "default" and manual = mbit "manual-bdp" and auto = mbit "autotune" in
      Printf.printf
        "\n%s @50ms/0%%: default %.2f, manual-bdp %.2f (%.1fx), autotune %.2f (%.0f%% of manual)\n"
        (Netbench.config_name config) dflt manual (manual /. dflt) auto
        (100.0 *. auto /. manual))
    longfat_configs;
  List.iter (fun gate -> gate rows) longfat_gates;
  Row.write_json "BENCH_longfat.json"
    Row.[ jstr "bench" "longfat"; jstr "unit" "Mbit/s"; jint "wire_mbit" 100; jint "seed" 42 ]
    (Row.objs longfat_fields rows)

(* ---------------- longfatsmoke: CI gate for long-fat-pipe TCP ---------------- *)

let longfatsmoke () =
  section_header "Longfat smoke: wscale/NewReno/autotune gates (fails loudly on regression)";
  (* 1) autotuning holds its own against hand-sized buffers at 50 ms, on
     an 8 MB transfer rather than the grid's 15.6 MB. *)
  List.iter
    (fun config ->
      let run bufmode =
        Netbench.longfat_transfer ~seed:42 ~loss:0.0 ~config ~rtt_ns:50_000_000
          ~bufmode ~bytes:(8 * 1024 * 1024) ()
      in
      let dflt = run Netbench.Lf_default in
      let manual = run Netbench.Lf_manual in
      let auto = run Netbench.Lf_autotune in
      Printf.printf
        "%-8s 50ms 0%%: default %.2f, manual %.2f, autotune %.2f Mbit/s (buf %d)\n%!"
        (Netbench.config_name config) dflt.Netbench.lf_mbit manual.Netbench.lf_mbit
        auto.Netbench.lf_mbit auto.Netbench.lf_rcv_buf;
      if manual.Netbench.lf_mbit < 5.0 *. dflt.Netbench.lf_mbit then
        failwith "longfatsmoke: scaled windows under 5x the seed throughput";
      if auto.Netbench.lf_mbit < 0.9 *. manual.Netbench.lf_mbit then
        failwith "longfatsmoke: autotune under 90% of manual BDP buffers";
      if auto.Netbench.lf_rcv_buf <= 64 * 1024 then
        failwith "longfatsmoke: autotune never grew the receive buffer")
    longfat_configs;
  (* 2) the persist timer probes through a forced zero-window stall. *)
  let probes, ok = Netbench.zero_window_run () in
  Printf.printf "zero-window stall: %d persist probes, byte-exact %s\n%!" probes (exact ok);
  if probes = 0 then failwith "longfatsmoke: persist timer never probed";
  if not ok then failwith "longfatsmoke: zero-window run not byte-exact";
  print_endline "\n>=5x at 50ms; autotune >= 90% of manual; probes fire"

(* ---------------- overload: survival under deliberate abuse ---------------- *)

(* A 10x SYN flood (40 spoofed SYNs against a depth-4 backlog), an
   allocation-failure soak, and a Slowloris mix — each with its defense
   off and on.  The headline number is the goodput the LEGITIMATE
   clients still see; the defenses are all Cost.config knobs that
   default off, so the Table 1/2/rtt baselines are untouched. *)

let overload_flood_syns = 40 (* 10x the listen backlog of 4 *)
let overload_legit = 4
let overload_bytes_per_client = 65536
let overload_soak_bytes = 262144

let overload_servers = [ Overloadbench.Sv_freebsd; Overloadbench.Sv_linux ]

let flood_fields =
  Overloadbench.(
    Row.
      [ str "kind" (fun _ -> "flood");
        str "server" ~t:("%-8s", "server") (fun r -> server_name r.fl_server);
        str "defense" ~t:("%-8s", "defense") (fun r -> on_off r.fl_defense);
        int "flood_syns" ~t:("%6d", "flood") (fun r -> r.fl_flood);
        int "legit" (fun r -> r.fl_legit);
        int "served" (fun r -> r.fl_served);
        cell 12 "legit-served" (fun r -> Printf.sprintf "%8d/%-3d" r.fl_served r.fl_legit);
        int "bytes" (fun r -> r.fl_bytes);
        float "goodput_mbit" ~t:("%7.1f Mb", "goodput") (fun r -> r.fl_goodput_mbit);
        int "syncache_added" ~t:("%8d", "cache") (fun r -> r.fl_syncache_added);
        int "handshakes_completed" ~t:("%10d", "completed") (fun r -> r.fl_completed);
        int "listen_overflow" ~t:("%9d", "overflow") (fun r -> r.fl_listen_overflow) ])

let alloc_fields =
  Overloadbench.(
    Row.
      [ str "kind" (fun _ -> "alloc");
        str "server" ~t:("%-8s", "server") (fun r -> server_name r.al_server);
        float "fail_prob" ~t:("%6.3f", "prob") (fun r -> r.al_prob);
        int "bytes" (fun r -> r.al_bytes);
        str "byte_exact" (fun r -> if r.al_byte_exact then "yes" else "no");
        float "goodput_mbit" ~t:("%7.1f Mb", "goodput") (fun r -> r.al_goodput_mbit);
        show "%10s" "byte-exact" (fun r -> exact r.al_byte_exact);
        int "draws" ~t:("%8d", "draws") (fun r -> r.al_draws);
        int "failures" ~t:("%9d", "failures") (fun r -> r.al_failures);
        int "nomem_drops" ~t:("%6d", "drops") (fun r -> r.al_nomem_drops) ])

let loris_fields =
  Overloadbench.(
    Row.
      [ str "kind" (fun _ -> "loris");
        str "guard" ~t:("%-6s", "guard") (fun r -> on_off r.lo_guard);
        int "loris" ~t:("%6d", "loris") (fun r -> r.lo_loris);
        int "legit" (fun r -> r.lo_legit);
        int "served" (fun r -> r.lo_served);
        cell 13 "legit-served" (fun r -> Printf.sprintf "%9d/%-3d" r.lo_served r.lo_legit);
        int "deadline_closed" ~t:("%15d", "deadline-cuts") (fun r -> r.lo_deadline_closed);
        int "shed" ~t:("%5d", "shed") (fun r -> r.lo_shed);
        int "peak_active" ~t:("%11d", "peak-active") (fun r -> r.lo_peak_active) ])

(* The former overloadsmoke gates, on the defended flood rows, the 1%
   soak rows and the guarded Slowloris row: a defended 10x flood leaves
   every legitimate client served at >= 70% of clean goodput; the soak
   stays byte-exact with the injector firing; the guard reclaims parked
   slots and serves the late clients. *)
let flood_gates =
  let open Overloadbench in
  List.concat_map
    (fun server ->
      let name = server_name server in
      let defended rows flood =
        List.find (fun r -> r.fl_server = server && r.fl_defense && r.fl_flood = flood) rows
      in
      let flooded rows = defended rows overload_flood_syns in
      [ Row.check (Printf.sprintf "overloadsmoke: %s dropped a legit client under flood" name)
          (fun rows -> (flooded rows).fl_served >= overload_legit);
        Row.check (Printf.sprintf "overloadsmoke: %s flooded goodput under 70%% of clean" name)
          (fun rows ->
            (flooded rows).fl_goodput_mbit /. (defended rows 0).fl_goodput_mbit >= 0.70);
        Row.check (Printf.sprintf "overloadsmoke: %s syncache missed flood SYNs" name)
          (fun rows -> (flooded rows).fl_syncache_added >= overload_flood_syns) ])
    overload_servers

let alloc_gates =
  let soak r = r.Overloadbench.al_prob = 0.01 in
  Overloadbench.
    [ Row.each "overloadsmoke: soak transfer not byte-exact" (fun r ->
          not (soak r) || r.al_byte_exact);
      Row.each "overloadsmoke: soak injector never fired" (fun r ->
          not (soak r) || r.al_failures <> 0) ]

let loris_gates =
  Overloadbench.
    [ Row.each "overloadsmoke: guarded httpd dropped a legit client" (fun r ->
          not r.lo_guard || r.lo_served >= r.lo_legit);
      Row.each "overloadsmoke: header deadline never fired" (fun r ->
          not r.lo_guard || r.lo_deadline_closed <> 0) ]

let overload () =
  section_header "overload: SYN flood x alloc failure x Slowloris";
  let floods =
    Row.table flood_fields
      (fun (server, (defense, flood)) ->
        Overloadbench.flood_run ~server ~defense ~flood ~legit:overload_legit
          ~bytes_per_client:overload_bytes_per_client ())
      Row.(overload_servers *** [ false; true ] *** [ 0; overload_flood_syns ])
  in
  print_newline ();
  let allocs =
    Row.table alloc_fields
      (fun (server, (prob, seed)) ->
        Overloadbench.alloc_run ~server ~prob ~seed ~bytes:overload_soak_bytes ())
      Row.(overload_servers *** [ (0.0, 42); (0.001, 42); (0.01, 43) ])
  in
  print_newline ();
  let lorises =
    Row.table loris_fields
      (fun guard -> Overloadbench.loris_run ~guard ~loris:8 ~legit:4 ())
      [ false; true ]
  in
  List.iter (fun gate -> gate floods) flood_gates;
  List.iter (fun gate -> gate allocs) alloc_gates;
  List.iter (fun gate -> gate lorises) loris_gates;
  Row.write_json "BENCH_overload.json"
    Row.[ jstr "bench" "overload"; jint "flood_syns" overload_flood_syns;
          jint "legit_clients" overload_legit;
          jint "bytes_per_client" overload_bytes_per_client;
          jint "soak_bytes" overload_soak_bytes; jstr "unit" "Mbit/s" ]
    (Row.objs flood_fields floods @ Row.objs alloc_fields allocs
    @ Row.objs loris_fields lorises)

(* ---------------- smp: multi-CPU scale-out ---------------- *)

let smp_fields =
  Smpbench.(
    Row.
      [ int "ncpus" ~t:("%-6d", "ncpus") (fun r -> r.r_ncpus);
        int "clients" ~t:("%8d", "clients") (fun r -> r.r_clients);
        int "requests" (fun r -> r.r_requests);
        float "duration_ms" (fun r -> r.r_duration_ms);
        float "rps" ~t:("%10.0f", "req/s") (fun r -> r.r_rps);
        float "p50_us" ~t:("%10.1f", "p50 (us)") (fun r -> r.r_p50_us);
        float "p99_us" ~t:("%10.1f", "p99 (us)") (fun r -> r.r_p99_us);
        int "responses" (fun r -> r.r_responses);
        int "mismatches" (fun r -> r.r_mismatches);
        int "rss_steered" ~t:("%8d", "hw-rss") (fun r -> r.r_rss_steered);
        int "netisr_queued" ~t:("%8d", "netisr") (fun r -> r.r_netisr_queued);
        int "netisr_drops" ~t:("%8d", "drops") (fun r -> r.r_netisr_drops);
        int "spin_contentions" ~t:("%6d", "spins") (fun r -> r.r_spin_contentions);
        (* One member per CPU; the column sits two spaces out. *)
        { json =
            (fun r ->
              Array.to_list
                (Array.mapi
                   (fun i f -> jfloat (Printf.sprintf "cpu%d_share" i) f)
                   r.r_cpu_share));
          col =
            Some
              ( " cpu share",
                fun r ->
                  Printf.sprintf " [%s]"
                    (String.concat " "
                       (Array.to_list (Array.map (Printf.sprintf "%.2f") r.r_cpu_share))) ) } ])

let smp_checks =
  Smpbench.
    [ Row.each "smp: response was not byte-exact" (fun r -> r.r_mismatches = 0);
      Row.each "smp: not every request got a 200" (fun r -> r.r_responses = r.r_requests);
      Row.each "smp: spinlock contention on the per-flow hot path"
        (fun r -> r.r_spin_contentions = 0);
      Row.each "smp: netisr queue overflowed" (fun r -> r.r_netisr_drops = 0) ]

let smp_at rows ~clients ~ncpus =
  List.find (fun r -> r.Smpbench.r_ncpus = ncpus && r.Smpbench.r_clients = clients) rows

let smp_speedup rows ~clients ~ncpus =
  (smp_at rows ~clients ~ncpus).Smpbench.r_rps /. (smp_at rows ~clients ~ncpus:1).Smpbench.r_rps

(* 4 CPUs scale >= 3x at the wide bursts; the 256-client 1- and 4-CPU
   rows are the former smpsmoke run. *)
let smp_gates =
  List.map
    (fun clients ->
      Row.check (Printf.sprintf "smp: 4-CPU speedup under 3x at %d clients" clients)
        (fun rows -> smp_speedup rows ~clients ~ncpus:4 >= 3.0))
    [ 1024; 2048 ]
  @ Smpbench.
      [ Row.check "smpsmoke: 4 CPUs not faster than 1" (fun rows ->
            (smp_at rows ~clients:256 ~ncpus:4).r_rps
            > (smp_at rows ~clients:256 ~ncpus:1).r_rps);
        Row.check "smpsmoke: no frames were ever steered (sharding inert?)" (fun rows ->
            let r = smp_at rows ~clients:256 ~ncpus:4 in
            r.r_rss_steered + r.r_netisr_queued <> 0) ]

let smp () =
  section_header
    "SMP: netisr-sharded reactor httpd, RSS flow steering (req/s vs CPUs)";
  let widths = [ 256; 1024; 2048 ] in
  let rows =
    Row.table ~checks:smp_checks smp_fields
      (fun (clients, ncpus) -> Smpbench.run ~ncpus ~clients ())
      Row.(widths *** [ 1; 2; 4; 8 ])
  in
  print_newline ();
  List.iter
    (fun clients ->
      Printf.printf "@%d clients: 2 CPUs %.2fx, 4 CPUs %.2fx, 8 CPUs %.2fx\n" clients
        (smp_speedup rows ~clients ~ncpus:2)
        (smp_speedup rows ~clients ~ncpus:4)
        (smp_speedup rows ~clients ~ncpus:8))
    widths;
  List.iter (fun gate -> gate rows) smp_gates;
  print_endline "\nsame payload bytes at every width; flows pinned to their RSS";
  print_endline "home CPU, the listen socket accepting on CPU 0";
  Row.write_json "BENCH_smp.json"
    Row.[ jstr "bench" "smp"; jint "file_bytes" Httpbench.file_bytes;
          jint "backlog" Smpbench.backlog; jstr "unit" "req/s" ]
    (Row.objs smp_fields rows)

(* ---------------- event: kqueue + timing-wheel complexity ---------------- *)

(* The event-core claim: per-pass dispatch work tracks the ready set and
   timer work tracks the due set, no matter how much idle state is
   registered.  Both sweeps hold the hot population fixed and grow the
   idle population three decades; the flat column is the result. *)

let kq_fields =
  Eventbench.(
    Row.
      [ str "kind" (fun _ -> "kqueue");
        int "idle" ~t:("%-10d", "idle") (fun r -> r.kr_idle);
        int "scan_visits" ~t:("%14d", "scan visits") (fun r -> r.kr_scan_visits);
        int "kq_visits" ~t:("%14d", "kq visits") (fun r -> r.kr_kq_visits);
        int "dispatches" ~t:("%12d", "dispatches") (fun r -> r.kr_dispatches) ])

let wheel_fields =
  Eventbench.(
    Row.
      [ str "kind" (fun _ -> "wheel");
        int "idle" ~t:("%-10d", "idle") (fun r -> r.wr_idle);
        int "work" ~t:("%14d", "wheel work") (fun r -> r.wr_work);
        int "fires" ~t:("%10d", "fires") (fun r -> r.wr_fires);
        int "cascades" ~t:("%10d", "cascades") (fun r -> r.wr_cascades);
        int "scan_visits" ~t:("%14d", "scan visits") (fun r -> r.wr_scan_visits) ])

(* No fire early, none more than one granule late, none missed. *)
let timing_contract prefix rows =
  List.iter
    (fun r ->
      let open Eventbench in
      if r.wr_early <> 0 || r.wr_late <> 0 || r.wr_missed <> 0 then
        failwith
          (Printf.sprintf "%s: timing contract broken (early %d late %d missed %d)" prefix
             r.wr_early r.wr_late r.wr_missed))
    rows

(* The former eventsmoke gates, on the idle 100 and 10,000 rows: kq
   dispatch work stays flat while the scan grows, and the wheel keeps its
   contract at O(due) work. *)
let kq_gates =
  let at rows idle = List.find (fun r -> r.Eventbench.kr_idle = idle) rows in
  Eventbench.
    [ Row.check "eventsmoke: kq visits grew with idle watches" (fun rows ->
          (at rows 10_000).kr_kq_visits = (at rows 100).kr_kq_visits);
      Row.check "eventsmoke: scan strawman implausibly cheap (harness broken?)" (fun rows ->
          let b = at rows 10_000 in
          b.kr_scan_visits >= 10 * b.kr_kq_visits) ]

let wheel_gates =
  let at rows = List.filter (fun r -> r.Eventbench.wr_idle = 10_000) rows in
  [ (fun rows -> timing_contract "eventsmoke" (at rows));
    Row.check "eventsmoke: wheel work not O(due)" (fun rows ->
        List.for_all (fun r -> Eventbench.(r.wr_work < r.wr_scan_visits / 100)) (at rows));
    timing_contract "event" ]

let event () =
  section_header "Event core: O(ready) dispatch, O(due) timers";
  Printf.printf
    "hot set fixed (%d ready watches / %d due timers), idle population sweeps\n\n"
    Eventbench.hot_set Eventbench.hot_set;
  let krows =
    Row.table kq_fields
      (fun idle ->
        Eventbench.kq_sweep ~idle ~hot:Eventbench.hot_set ~rounds:Eventbench.kq_rounds)
      Eventbench.idle_sweep
  in
  List.iter (fun gate -> gate krows) kq_gates;
  print_newline ();
  let wrows =
    Row.table wheel_fields
      (fun idle -> Eventbench.wheel_run ~idle ~hot:Eventbench.hot_set)
      Eventbench.idle_sweep
  in
  List.iter (fun gate -> gate wrows) wheel_gates;
  print_endline "\n(timing contract held: no early fires, none > 1 granule late)";
  Row.write_json "BENCH_event.json"
    Row.[ jstr "bench" "event"; jint "hot" Eventbench.hot_set;
          jint "kq_rounds" Eventbench.kq_rounds;
          jint "wheel_ticks" Eventbench.wheel_window_ticks ]
    (Row.objs kq_fields krows @ Row.objs wheel_fields wrows)

let eventsmoke () =
  section_header "event CI gate";
  (* A full reactor httpd transfer with timer_wheel on: the served bytes
     must be exact. *)
  let r =
    Cost.with_config
      (fun c -> c.Cost.timer_wheel <- true)
      (fun () ->
        Httpbench.run ~config:Rig.Oskit_com ~mode:Rig.Reactor ~clients:64 ())
  in
  if r.Httpbench.r_mismatches <> 0 then
    failwith "eventsmoke: byte mismatch with kq+wheel on";
  if r.Httpbench.r_responses <> r.Httpbench.r_requests then
    failwith
      (Printf.sprintf "eventsmoke: %d/%d responses with kq+wheel on"
         r.Httpbench.r_responses r.Httpbench.r_requests);
  Printf.printf "httpd with kq+timer_wheel: %d/%d responses, all byte-exact\n"
    r.Httpbench.r_responses r.Httpbench.r_requests;
  print_endline "\nkq+wheel httpd byte-exact"

(* ---------------- file: the keep-alive + sendfile content path ---------------- *)

let file_json, file_table =
  let open Filebench in
  let stack = Row.str "stack" ~t:("%-8s", "stack") (fun r -> Rig.config_name r.r_config)
  and mode = Row.str "mode" ~t:("%-8s", "mode") (fun r -> Rig.mode_name r.r_mode)
  and files = Row.int "files" ~t:("%6d", "files") (fun r -> r.r_files)
  and file_bytes = Row.int "file_bytes" ~t:("%7d", "fbytes") (fun r -> r.r_file_bytes)
  and requests = Row.int "requests" ~t:("%6d", "reqs") (fun r -> r.r_requests)
  and rps = Row.float "rps" ~t:("%8.0f", "req/s") (fun r -> r.r_rps)
  and copied =
    Row.float "copied_per_req" ~t:("%10.1f", "copied/req") (fun r -> r.r_copied_per_req)
  and sf_bodies =
    Row.int "sendfile_bodies" ~t:("%9d", "sf-bodies") (fun r -> r.r_sendfile_bodies)
  and fallbacks =
    Row.int "sendfile_fallbacks" ~t:("%9d", "fallback") (fun r -> r.r_sendfile_fallbacks)
  and bc_hits = Row.int "bufcache_hits" ~t:("%8d", "bc-hit") (fun r -> r.r_bufcache_hits)
  and bc_misses =
    Row.int "bufcache_misses" ~t:("%8d", "bc-miss") (fun r -> r.r_bufcache_misses)
  and xmits =
    Row.float "xmits_per_resp" ~t:("%7.2f", "xm/resp") (fun r -> r.r_xmits_per_resp)
  in
  ( Row.
      [ stack; mode;
        str "knobs" (fun r -> knobs_name r.r_knobs);
        int "clients" (fun r -> r.r_clients);
        int "pipeline" (fun r -> r.r_pipeline);
        requests; files; file_bytes;
        float "duration_ms" (fun r -> r.r_duration_ms);
        rps;
        int "responses" (fun r -> r.r_responses);
        int "reused" (fun r -> r.r_reused);
        int "pipelined" (fun r -> r.r_pipelined);
        int "idle_closed" (fun r -> r.r_idle_closed);
        int "capped" (fun r -> r.r_capped);
        int "accepted" (fun r -> r.r_accepted);
        sf_bodies; fallbacks;
        int "body_bytes_copied" (fun r -> r.r_body_bytes_copied);
        copied; bc_hits; bc_misses; xmits;
        int "protocol_errors" (fun r -> r.r_protocol_errors);
        int "mismatches" (fun r -> r.r_mismatches) ],
    Row.
      [ stack; mode;
        show "%-14s" "knobs" (fun r ->
            knobs_name r.r_knobs
            ^ if r.r_pipeline > 1 then Printf.sprintf "+p%d" r.r_pipeline else "");
        files; file_bytes; requests; rps; copied; sf_bodies; fallbacks; bc_hits; bc_misses;
        xmits;
        show "%6d" "bad" (fun r -> r.r_mismatches + r.r_protocol_errors) ] )

let file_checks =
  Filebench.
    [ Row.each "file: response was not byte-exact" (fun r -> r.r_mismatches = 0);
      Row.each "file: protocol errors" (fun r -> r.r_protocol_errors = 0);
      Row.each "file: not every request got a 200" (fun r -> r.r_responses >= r.r_requests);
      (* A request reads each block of its directory and of its body at
         most once: the lookup scans directory blocks in place.  64 KB
         bodies are left out, as the copy path re-reads a block per send
         chunk. *)
      Row.each "file: a request read more blocks than its directory and body hold"
        (fun r ->
          let blocks bytes = (bytes + Ffs.bsize - 1) / Ffs.bsize in
          r.r_file_bytes > 16384
          || r.r_bufcache_hits + r.r_bufcache_misses
             <= r.r_responses
                * (blocks ((r.r_files + 2) * Ffs.dirent_size) + blocks r.r_file_bytes)) ]

let file () =
  section_header
    "FILE: HTTP/1.1 keep-alive + sendfile content path (req/s, body copies/request)";
  Row.header file_table;
  let cell ?(config = Rig.Freebsd_com) ?(mode = Rig.Reactor) ?(clients = 16) ?(reqs = 125)
      ?(files = 16) ?(file_bytes = 4096) ?(pipeline = 1) knobs =
    Row.row ~checks:file_checks file_table
      (Filebench.run ~config ~mode ~knobs ~pipeline ~clients ~reqs_per_client:reqs ~files
         ~file_bytes ())
  in
  (* The knob matrix: both stacks (plus the OSKit glue shape), both
     serving shapes, all three knob sets, 2000 requests per cell on the
     small (in-cache) working set. *)
  let matrix =
    List.map
      (fun (config, (mode, knobs)) -> cell ~config ~mode knobs)
      Row.([ Rig.Freebsd_com; Rig.Linux_com; Rig.Oskit_com ]
           *** [ Rig.Reactor; Rig.Threads ]
           *** Filebench.[ http10; keepalive; ka_sendfile ])
  in
  (* Working set larger than the 64-block cache: eviction under load. *)
  print_newline ();
  let thrash = List.map (cell ~files:128) Filebench.[ keepalive; ka_sendfile ] in
  (* Body-size sweep: the copy path scales linearly with the body, the
     warm sendfile path stays at zero copied bytes per request. *)
  print_newline ();
  let sweep =
    List.map
      (fun (file_bytes, knobs) -> cell ~files:4 ~reqs:63 ~file_bytes knobs)
      Row.([ 1024; 4096; 16384; 65536 ] *** Filebench.[ keepalive; ka_sendfile ])
  in
  (* Headline scale: 10k requests over reused connections vs 10k fresh
     connections, FreeBSD reactor, on the small-object workload (1 KB —
     the median web object of the period) where connect/teardown is the
     dominant per-request cost.  The reused-connection rows run both
     serial (depth 1) and pipelined (depth 8, the server's parse-ahead
     bound): pipelining is where persistent connections stop paying a
     per-request round trip, so the headline ratio is depth 8.  The cells
     run and print in this order; the JSON lists them by knobs, then
     depth. *)
  print_newline ();
  let scale =
    List.map
      (fun (knobs, pipeline) -> cell ~clients:16 ~reqs:625 ~file_bytes:1024 ~pipeline knobs)
      Filebench.[ keepalive, 8; keepalive, 1; ka_sendfile, 8; ka_sendfile, 1; http10, 1 ]
  in
  let cell_at k p =
    List.find (fun r -> r.Filebench.r_knobs = k && r.Filebench.r_pipeline = p) scale
  in
  let rps k p = (cell_at k p).Filebench.r_rps in
  Printf.printf
    "\n@10k requests (FreeBSD reactor): close-per-request %.0f req/s; keep-alive %.0f (%.1fx), pipelined x8 %.0f (%.1fx); +sendfile pipelined %.0f (%.1fx)\n"
    (rps Filebench.http10 1)
    (rps Filebench.keepalive 1)
    (rps Filebench.keepalive 1 /. rps Filebench.http10 1)
    (rps Filebench.keepalive 8)
    (rps Filebench.keepalive 8 /. rps Filebench.http10 1)
    (rps Filebench.ka_sendfile 8)
    (rps Filebench.ka_sendfile 8 /. rps Filebench.http10 1);
  if rps Filebench.ka_sendfile 8 < 3.0 *. rps Filebench.http10 1 then
    failwith
      "file: keep-alive+sendfile pipelined under 3x close-per-request at 10k requests";
  (* A pipeline's built responses leave in one send, so the card sees
     fewer transmits per response than when each response goes alone. *)
  Row.check "file: pipelined ka+sendfile+sg transmits no less per response than serial"
    (fun _ ->
      (cell_at Filebench.ka_sendfile 8).Filebench.r_xmits_per_resp
      < (cell_at Filebench.ka_sendfile 1).Filebench.r_xmits_per_resp)
    scale;
  Row.each "file: warm sendfile run copied body bytes"
    (fun r ->
      r.Filebench.r_knobs <> Filebench.ka_sendfile
      || r.Filebench.r_config = Rig.Linux_com
      || r.Filebench.r_body_bytes_copied = 0)
    (matrix @ sweep @ scale);
  print_endline "\nLinux rows under ka+sendfile show the counted copy fallback: no sendv";
  print_endline "face on contiguous sk_buffs (Section 5's asymmetry at the app layer)";
  Row.write_json "BENCH_file.json"
    Row.[ jstr "bench" "file"; jint "bufcache_blocks" 64; jstr "unit" "req/s" ]
    (Row.objs file_json
       (matrix @ thrash @ sweep
       @ List.sort
           (fun a b ->
             compare
               (a.Filebench.r_knobs, a.Filebench.r_pipeline)
               (b.Filebench.r_knobs, b.Filebench.r_pipeline))
           scale))

(* ---------------- filesmoke: CI gate for the content path ---------------- *)

let filesmoke () =
  section_header "FILE smoke: keep-alive win, zero warm-cache copies, byte-exact";
  Row.header file_table;
  let run ?(config = Rig.Freebsd_com) ?(mode = Rig.Reactor) knobs =
    Row.row ~checks:file_checks file_table
      (Filebench.run ~config ~mode ~knobs ~clients:64 ~reqs_per_client:4 ~files:16
         ~file_bytes:4096 ())
  in
  (* 1) keep-alive must beat close-per-request at 64 clients. *)
  let th10 = run Filebench.http10 in
  let ka = run Filebench.keepalive in
  if ka.Filebench.r_rps <= th10.Filebench.r_rps then
    failwith "filesmoke: keep-alive not faster than close-per-request";
  (* 2) warm-cache sendfile: zero body bytes copied, zero fallbacks. *)
  let sf = run Filebench.ka_sendfile in
  if sf.Filebench.r_body_bytes_copied <> 0 then
    failwith "filesmoke: sendfile path copied body bytes";
  if sf.Filebench.r_sendfile_fallbacks <> 0 then
    failwith "filesmoke: sendfile fell back on a mappable working set";
  if sf.Filebench.r_sendfile_bodies < sf.Filebench.r_requests then
    failwith "filesmoke: not every 200 went through the mapped path";
  (* 3) the threaded shape serves the same bytes. *)
  ignore (run ~mode:Rig.Threads Filebench.ka_sendfile);
  (* 4) Linux: no sendv face, so the counted fallback must carry it. *)
  let lx = run ~config:Rig.Linux_com Filebench.ka_sendfile in
  if lx.Filebench.r_sendfile_fallbacks = 0 || lx.Filebench.r_body_bytes_copied = 0
  then failwith "filesmoke: Linux fallback not counted";
  print_endline
    "\nkeep-alive > close-per-request; warm sendfile copies zero body bytes; all byte-exact"

(* ---------------- driver ---------------- *)

let sections =
  [ "table1", table1;
    "table2", table2;
    "table3", table3;
    "footprint", footprint;
    "vmnet", vmnet;
    "alloc", alloc;
    "glue", glue;
    "copies", copies;
    "chaos", chaos;
    "sgsmoke", sgsmoke;
    "rtt", rtt;
    "http", http;
    "rttsmoke", rttsmoke;
    "longfat", longfat;
    "longfatsmoke", longfatsmoke;
    "overload", overload;
    "smp", smp;
    "event", event;
    "eventsmoke", eventsmoke;
    "file", file;
    "filesmoke", filesmoke ]

(* Every argument is checked before anything runs: a misspelled section
   exits 2 instead of silently testing nothing. *)
let () =
  let names = List.tl (Array.to_list Sys.argv) in
  (match List.filter (fun n -> not (List.mem_assoc n sections)) names with
  | [] -> ()
  | bad ->
      List.iter (fun n -> Printf.eprintf "unknown section %S\n" n) bad;
      Printf.eprintf "usage: main.exe [section ...]\nsections: %s\n"
        (String.concat " " (List.map fst sections));
      exit 2);
  let requested = match names with [] -> List.map fst sections | ns -> ns in
  print_endline "Flux OSKit reproduction — benchmark harness";
  Printf.printf "(virtual testbed: 2x 200MHz PCs, 100 Mbps Ethernet; %d-block runs)\n" blocks;
  List.iter (fun name -> (List.assoc name sections) ()) requested
