(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation on the simulated testbed, plus the ablations
   DESIGN.md calls out.

   Sections (run all, or name them on the command line):
     table1     TCP bandwidth matrix (ttcp)               — paper Table 1
     table2     TCP 1-byte round-trip latency (rtcp)      — paper Table 2
     table3     component source-size inventory           — paper Table 3
     footprint  static size of the netcomputer config     — paper §6.2.5
     vmnet      TCP throughput measured from the VM       — paper §6.2.6
     alloc      allocator micro-benchmarks (Bechamel)     — paper §6.2.10
     glue       glue-overhead ablation                    — DESIGN.md A
     copies     per-packet copy accounting                — DESIGN.md B
     chaos      ttcp goodput under injected faults        — netem
     sgsmoke    scatter-gather send-path CI gate
     http       event-driven vs threaded HTTP serving     — oskit_asyncio
     httpsmoke  64-client asyncio CI gate
     rtt        rtcp latency percentiles, receive fast path on/off
     rttsmoke   receive fast-path CI gate (equivalence + strict RTT win)
     longfat    ttcp over RTT x loss grid, wscale/NewReno/autotune — long fat pipes
     longfatsmoke  long-fat-pipe CI gate (byte-exact, 5x, autotune, persist)
     overload   SYN flood x alloc failure x Slowloris, legit-client goodput
     overloadsmoke  overload-survival CI gate (goodput ratio, byte-exact soak)
     smp        multi-CPU scale-out: netisr-sharded reactor httpd, RSS steering
     smpsmoke   SMP CI gate (byte-exact, 4-CPU win, lock-free hot path)
     event      kqueue O(ready) dispatch + timing-wheel O(due) curves
     eventsmoke event-core CI gate (flat dispatch, timing contract, byte-exact)
     file       HTTP/1.1 keep-alive + sendfile content path: req/s and copies/req
     filesmoke  content-path CI gate (keep-alive win, zero warm copies, byte-exact)

   Network numbers come from the deterministic virtual-time simulation
   (they are not wall-clock); the allocator section uses Bechamel
   wall-clock measurement of the real data structures. *)

let section_header title = Printf.printf "\n=== %s ===\n%!" title

(* Scale knob: OSKIT_BENCH_BLOCKS overrides the per-run block count (the
   paper used 131072 blocks of 4096; the default here keeps a full matrix
   run to a couple of minutes of wall clock with identical shapes). *)
let blocks =
  match Sys.getenv_opt "OSKIT_BENCH_BLOCKS" with
  | Some v -> int_of_string v
  | None -> 2048

let blocksize = 4096

(* Flags that modify sections (set by the driver below):
     --sg    add a scatter-gather send column / counter audit to table1
     --json  also write each table as BENCH_<section>.json *)
let want_sg = ref false
let want_json = ref false

(* Minimal JSON emission: the repository carries no JSON library, and
   these records are flat. *)
let json_obj fields = "{" ^ String.concat ", " fields ^ "}"
let json_str k v = Printf.sprintf "%S: %S" k v
let json_int k v = Printf.sprintf "%S: %d" k v
let json_float k v = Printf.sprintf "%S: %.4f" k v

let write_json file rows_name header rows =
  let oc = open_out file in
  output_string oc "{\n";
  List.iter (fun line -> output_string oc ("  " ^ line ^ ",\n")) header;
  output_string oc (Printf.sprintf "  %S: [\n" rows_name);
  let n = List.length rows in
  List.iteri
    (fun i row ->
      output_string oc ("    " ^ row ^ (if i = n - 1 then "\n" else ",\n")))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "(wrote %s)\n%!" file

(* ---------------- Table 1 ---------------- *)

let table1 () =
  section_header "Table 1: TCP bandwidth, ttcp (Mbit/s)";
  Printf.printf "workload: %d blocks x %d bytes = %.1f MB per run, 100 Mbps Ethernet\n\n"
    blocks blocksize
    (float_of_int (blocks * blocksize) /. 1048576.0);
  Printf.printf "%-22s %14s %14s\n" "system" "send (Mbit/s)" "recv (Mbit/s)";
  let fixed = Netbench.Freebsd in
  let rows =
    List.map
      (fun config ->
        (* Send row: [config] transmits to a native FreeBSD sink; receive
           row: a native FreeBSD source transmits to [config]. *)
        let send = Netbench.transfer ~sender:config ~receiver:fixed ~blocks ~blocksize () in
        let recv = Netbench.transfer ~sender:fixed ~receiver:config ~blocks ~blocksize () in
        Printf.printf "%-22s %14.2f %14.2f\n%!" (Netbench.config_name config)
          send.Netbench.mbit_sender recv.Netbench.mbit_e2e;
        config, send, recv)
      [ Netbench.Linux; Netbench.Freebsd; Netbench.Oskit ]
  in
  print_newline ();
  print_endline "paper's qualitative claims (Section 5):";
  print_endline "  - OSKit receives about as fast as FreeBSD (zero-copy skbuff->mbuf map)";
  print_endline "  - OSKit send is lower: mbuf chains are flattened into skbuffs (extra copy)";
  let sg_rows =
    if not !want_sg then []
    else begin
      Printf.printf "\nwith --sg (scatter-gather transmit at the glue, Cost.sg_tx):\n";
      Printf.printf "%-22s %14s %14s %10s %10s %12s\n" "system" "send (Mbit/s)"
        "send sg on" "sg xmits" "flattened" "copies/kpkt";
      List.map
        (fun (config, send, _) ->
          let sg =
            Netbench.transfer ~sg:true ~sender:config ~receiver:fixed ~blocks ~blocksize ()
          in
          Printf.printf "%-22s %14.2f %14.2f %10d %10d %12d\n%!"
            (Netbench.config_name config) send.Netbench.mbit_sender
            sg.Netbench.mbit_sender sg.Netbench.sg_xmits sg.Netbench.linearized_xmits
            sg.Netbench.copies_per_kpkt;
          config, sg)
        rows
    end
  in
  (match List.assoc_opt Netbench.Oskit (List.map (fun (c, s) -> c, s) sg_rows) with
  | Some sg ->
      let fbsd_send =
        List.find_map
          (fun (c, s, _) -> if c = Netbench.Freebsd then Some s.Netbench.mbit_sender else None)
          rows
        |> Option.get
      in
      Printf.printf
        "\nOSKit --sg send is %.1f%% of native FreeBSD send (flatten copy eliminated:\n\
         %d sg xmits, %d linearized)\n"
        (100.0 *. sg.Netbench.mbit_sender /. fbsd_send)
        sg.Netbench.sg_xmits sg.Netbench.linearized_xmits
  | None -> ());
  if !want_json then
    write_json "BENCH_table1.json" "rows"
      [ json_str "bench" "table1"; json_int "blocks" blocks;
        json_int "blocksize" blocksize; json_str "unit" "Mbit/s" ]
      (List.map
         (fun (config, send, recv) ->
           let base =
             [ json_str "system" (Netbench.config_name config);
               json_float "send_mbit" send.Netbench.mbit_sender;
               json_float "recv_mbit" recv.Netbench.mbit_e2e;
               json_int "send_copies_per_kpkt" send.Netbench.copies_per_kpkt;
               json_int "send_crossings_per_kpkt" send.Netbench.crossings_per_kpkt;
               json_int "send_sg_xmits" send.Netbench.sg_xmits;
               json_int "send_linearized_xmits" send.Netbench.linearized_xmits;
               json_int "send_checksummed_bytes" send.Netbench.checksummed_bytes ]
           in
           let sg_fields =
             match List.assoc_opt config (List.map (fun (c, s) -> c, s) sg_rows) with
             | Some sg ->
                 [ json_float "send_sg_mbit" sg.Netbench.mbit_sender;
                   json_int "sg_sg_xmits" sg.Netbench.sg_xmits;
                   json_int "sg_linearized_xmits" sg.Netbench.linearized_xmits ]
             | None -> []
           in
           json_obj (base @ sg_fields))
         rows)

(* ---------------- Table 2 ---------------- *)

let table2 () =
  section_header "Table 2: TCP 1-byte round-trip time, rtcp (usec)";
  Printf.printf "%-22s %12s\n" "system" "RTT (usec)";
  let rows =
    List.map
      (fun config ->
        let rtt = Netbench.rtt_us config ~trips:200 in
        Printf.printf "%-22s %12.1f\n%!" (Netbench.config_name config) rtt;
        config, rtt)
      [ Netbench.Linux; Netbench.Freebsd; Netbench.Oskit ]
  in
  print_newline ();
  print_endline "paper's qualitative claim: the OSKit imposes significant latency";
  print_endline "overhead vs FreeBSD — glue-code crossings, not data copies (1-byte)";
  if !want_json then
    write_json "BENCH_table2.json" "rows"
      [ json_str "bench" "table2"; json_int "trips" 200; json_str "unit" "usec" ]
      (List.map
         (fun (config, rtt) ->
           json_obj
             [ json_str "system" (Netbench.config_name config); json_float "rtt_us" rtt ])
         rows)

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
  (* The deficiency the paper reports: the LMM is built for flexibility,
     not common-case speed; a conventional high-level allocator (the BSD
     bucket allocator here) is much faster for small hot-path blocks. *)
  let lmm_test =
    let lmm = Lmm.create () in
    Lmm.add_region lmm ~min:0 ~size:(1 lsl 22) ~flags:0 ~pri:0;
    Lmm.add_free lmm ~addr:0 ~size:(1 lsl 22);
    Test.make ~name:"lmm alloc+free 128B"
      (Staged.stage (fun () ->
           match Lmm.alloc lmm ~size:128 ~flags:0 with
           | Some addr -> Lmm.free lmm ~addr ~size:128
           | None -> assert false))
  in
  let pool_test =
    let lmm = Lmm.create () in
    Lmm.add_region lmm ~min:0 ~size:(1 lsl 22) ~flags:0 ~pri:0;
    Lmm.add_free lmm ~addr:0 ~size:(1 lsl 22);
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
    let lmm = Lmm.create () in
    Lmm.add_region lmm ~min:0 ~size:(1 lsl 22) ~flags:0 ~pri:0;
    Lmm.add_free lmm ~addr:0 ~size:(1 lsl 22);
    let k = Kalloc.create lmm in
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
    let lmm = Lmm.create () in
    Lmm.add_region lmm ~min:0 ~size:(1 lsl 22) ~flags:0 ~pri:0;
    Lmm.add_free lmm ~addr:0 ~size:(1 lsl 22);
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
  let lmm = Lmm.create () in
  Lmm.add_region lmm ~min:0 ~size:(1 lsl 22) ~flags:0 ~pri:0;
  Lmm.add_free lmm ~addr:0 ~size:(1 lsl 22);
  let k = Kalloc.create lmm in
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
  Printf.printf "%-28s %14s %12s\n" "glue_crossing_cycles" "send (Mbit/s)" "RTT (usec)";
  List.iter
    (fun cycles ->
      Cost.reset_config ();
      Cost.config.Cost.glue_crossing_cycles <- cycles;
      let t =
        Netbench.transfer ~sender:Netbench.Oskit ~receiver:Netbench.Freebsd
          ~blocks:(blocks / 2) ~blocksize ()
      in
      let rtt = Netbench.rtt_us Netbench.Oskit ~trips:100 in
      Printf.printf "%-28d %14.2f %12.1f\n%!" cycles t.Netbench.mbit_sender rtt)
    [ 0; 500; 1500; 3000; 6000 ];
  Cost.reset_config ();
  print_endline "\n(cycles=0 isolates the copy cost; the remainder is \"the price we pay";
  print_endline " for modularity and separability\", Section 5)"

let copies () =
  section_header "Ablation B: per-packet copy and crossing accounting";
  Printf.printf "%-28s %18s %18s\n" "configuration" "copies/1000 pkts" "crossings/1000 pkts";
  List.iter
    (fun (label, sender, receiver) ->
      let t = Netbench.transfer ~sender ~receiver ~blocks:(blocks / 2) ~blocksize () in
      Printf.printf "%-28s %18d %18d\n%!" label t.Netbench.copies_per_kpkt
        t.Netbench.crossings_per_kpkt)
    [ "FreeBSD -> FreeBSD", Netbench.Freebsd, Netbench.Freebsd;
      "OSKit -> FreeBSD (send path)", Netbench.Oskit, Netbench.Freebsd;
      "FreeBSD -> OSKit (recv path)", Netbench.Freebsd, Netbench.Oskit;
      "Linux -> Linux", Netbench.Linux, Netbench.Linux ];
  print_endline "\nthe send path shows the extra flattening copy; the receive path does not"

(* ---------------- chaos: goodput under injected loss ---------------- *)

let chaos () =
  section_header "Chaos: ttcp goodput vs injected loss (netem, seed 42)";
  Printf.printf
    "each run: %d blocks x %d bytes to a native FreeBSD sink; byte-exact\n\
     means every payload byte arrived once, in order, with the right value\n\n"
    blocks blocksize;
  Printf.printf "%-10s %7s %14s %9s %9s %11s\n" "sender" "loss" "goodput (Mbit/s)"
    "rexmits" "drops" "byte-exact";
  List.iter
    (fun sender ->
      List.iter
        (fun loss ->
          let r =
            Netbench.chaos_transfer ~seed:42 ~loss ~sender
              ~receiver:Netbench.Freebsd ~blocks ~blocksize ()
          in
          Printf.printf "%-10s %6.1f%% %14.2f %9d %9d %11s\n%!"
            (Netbench.config_name sender) (loss *. 100.0)
            r.Netbench.goodput_mbit r.Netbench.chaos_rexmits
            r.Netbench.wire_dropped
            (if r.Netbench.byte_exact then "yes" else "NO");
          if not r.Netbench.byte_exact then
            failwith "chaos: transfer was not byte-exact")
        [ 0.0; 0.005; 0.01; 0.02; 0.05 ])
    [ Netbench.Freebsd; Netbench.Oskit; Netbench.Linux ];
  print_newline ();
  print_endline "retransmissions recover every loss: goodput degrades, correctness doesn't"

(* ---------------- sgsmoke: CI gate for the --sg path ---------------- *)

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
        (if r.Netbench.byte_exact then "yes" else "NO");
      if not r.Netbench.byte_exact then
        failwith "sgsmoke: sg transfer under loss was not byte-exact")
    [ 0.0; 0.01; 0.05 ];
  print_endline "\nsg send >= default send; zero flatten copies; byte-exact under loss"

(* ---------------- rtt: the Table 2 gap, attacked ---------------- *)

(* All three receive-side fast-path layers at once; default off everywhere
   else, so only these two sections ever see them. *)
let fast_flags on f =
  Cost.config.Cost.tcp_fastpath <- on;
  Cost.config.Cost.pcb_hash <- on;
  Cost.config.Cost.rx_batch <- (if on then 8 else 1);
  Fun.protect
    ~finally:(fun () ->
      Cost.config.Cost.tcp_fastpath <- false;
      Cost.config.Cost.pcb_hash <- false;
      Cost.config.Cost.rx_batch <- 1)
    f

let rtt () =
  section_header "RTT distribution: rtcp percentiles, default vs receive fast path";
  print_endline
    "fast path = header prediction + hashed PCB demux + batched RX; flags off\n\
     reproduces Table 2 exactly, flags on closes the gap toward FreeBSD\n";
  Printf.printf "%-10s %-9s %10s %9s %9s %9s %8s %9s %8s %9s\n" "system" "fastpath"
    "mean (us)" "p50" "p95" "p99" "fp hits" "fallback" "pcb hit" "pcb miss";
  let trips = 200 in
  let rows =
    List.concat_map
      (fun config ->
        List.map
          (fun fastpath ->
            let r = Netbench.dist ~fastpath config ~trips in
            Printf.printf "%-10s %-9s %10.1f %9.1f %9.1f %9.1f %8d %9d %8d %9d\n%!"
              (Netbench.config_name config)
              (if fastpath then "on" else "off")
              r.Netbench.rtt_mean_us r.Netbench.rtt_p50_us r.Netbench.rtt_p95_us
              r.Netbench.rtt_p99_us r.Netbench.rtt_fastpath_hits
              r.Netbench.rtt_fastpath_fallbacks r.Netbench.rtt_pcb_cache_hits
              r.Netbench.rtt_pcb_cache_misses;
            config, fastpath, r)
          [ false; true ])
      [ Netbench.Linux; Netbench.Freebsd; Netbench.Oskit ]
  in
  let mean config fastpath =
    let _, _, r = List.find (fun (c, f, _) -> c = config && f = fastpath) rows in
    r.Netbench.rtt_mean_us
  in
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
        Httpbench.run ~config:Httpbench.Oskit_com ~mode:Httpbench.Reactor ~clients:128 ())
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
  if !want_json then
    write_json "BENCH_rtt.json" "rows"
      [ json_str "bench" "rtt"; json_int "trips" trips; json_str "unit" "usec";
        json_float "http128_p50_us_default" hoff.Httpbench.r_p50_us;
        json_float "http128_p50_us_fastpath" hon.Httpbench.r_p50_us;
        json_float "http128_p99_us_default" hoff.Httpbench.r_p99_us;
        json_float "http128_p99_us_fastpath" hon.Httpbench.r_p99_us;
        json_int "http128_rx_polls" polls;
        json_int "http128_rx_frames" frames ]
      (List.map
         (fun (config, fastpath, r) ->
           json_obj
             [ json_str "system" (Netbench.config_name config);
               json_str "fastpath" (if fastpath then "on" else "off");
               json_float "mean_us" r.Netbench.rtt_mean_us;
               json_float "p50_us" r.Netbench.rtt_p50_us;
               json_float "p95_us" r.Netbench.rtt_p95_us;
               json_float "p99_us" r.Netbench.rtt_p99_us;
               json_int "fastpath_hits" r.Netbench.rtt_fastpath_hits;
               json_int "fastpath_fallbacks" r.Netbench.rtt_fastpath_fallbacks;
               json_int "pcb_cache_hits" r.Netbench.rtt_pcb_cache_hits;
               json_int "pcb_cache_misses" r.Netbench.rtt_pcb_cache_misses;
               json_int "rx_polls" r.Netbench.rtt_rx_polls;
               json_int "rx_frames" r.Netbench.rtt_rx_frames ])
         rows)

(* ---------------- http: asyncio concurrency experiment ---------------- *)

let http_header () =
  Printf.printf
    "file: %d B from memfs; RAM budget %d KB -> %d handler threads (32KB stack)\n\
     vs %d reactor connections (2KB state); listen backlog %d; %d reqs/client\n\n"
    Httpbench.file_bytes (Httpbench.ram_budget / 1024) Httpbench.max_threads
    Httpbench.max_conns Httpbench.backlog 2;
  Printf.printf "%-9s %-8s %8s %10s %10s %10s %6s %9s %6s\n" "stack" "mode"
    "clients" "req/s" "p50 (us)" "p99 (us)" "peak" "overflow" "shed"

let http_row r =
  Printf.printf "%-9s %-8s %8d %10.0f %10.1f %10.1f %6d %9d %6d\n%!"
    (Httpbench.config_name r.Httpbench.r_config)
    (Httpbench.mode_name r.Httpbench.r_mode)
    r.Httpbench.r_clients r.Httpbench.r_rps r.Httpbench.r_p50_us r.Httpbench.r_p99_us
    r.Httpbench.r_peak_active r.Httpbench.r_listen_overflow r.Httpbench.r_shed

let http_check r =
  if r.Httpbench.r_mismatches > 0 then failwith "http: response was not byte-exact";
  if r.Httpbench.r_protocol_errors > 0 then failwith "http: server saw protocol errors";
  if r.Httpbench.r_responses <> r.Httpbench.r_requests then
    failwith "http: not every request got a 200"

let http () =
  section_header "HTTP: event-driven vs thread-per-connection at equal memory (oskit_asyncio)";
  http_header ();
  let rows =
    List.concat_map
      (fun config ->
        List.concat_map
          (fun clients ->
            List.map
              (fun mode ->
                let r = Httpbench.run ~config ~mode ~clients () in
                http_row r;
                http_check r;
                r)
              [ Httpbench.Threads; Httpbench.Reactor ])
          [ 1; 4; 16; 64; 256 ])
      [ Httpbench.Freebsd_com; Httpbench.Linux_com ]
  in
  print_newline ();
  List.iter
    (fun config ->
      let at mode =
        List.find
          (fun r ->
            r.Httpbench.r_config = config && r.Httpbench.r_mode = mode
            && r.Httpbench.r_clients = 256)
          rows
      in
      let re = at Httpbench.Reactor and th = at Httpbench.Threads in
      Printf.printf
        "%s @256 clients: reactor held %d concurrent connections vs %d threaded\n\
        \  (%.1fx at the same %dKB budget); reactor %.0f req/s vs threaded %.0f\n"
        (Httpbench.config_name config) re.Httpbench.r_peak_active
        th.Httpbench.r_peak_active
        (float_of_int re.Httpbench.r_peak_active
        /. float_of_int (max 1 th.Httpbench.r_peak_active))
        (Httpbench.ram_budget / 1024) re.Httpbench.r_rps th.Httpbench.r_rps;
      if re.Httpbench.r_peak_active < 4 * th.Httpbench.r_peak_active then
        failwith "http: reactor sustained < 4x the threaded concurrency")
    [ Httpbench.Freebsd_com; Httpbench.Linux_com ];
  print_endline "\nsame server component, same COM interfaces, both stacks; the threaded";
  print_endline "shape hits its memory cap and the listen backlog does the dropping";
  write_json "BENCH_http.json" "rows"
    [ json_str "bench" "http"; json_int "file_bytes" Httpbench.file_bytes;
      json_int "ram_budget" Httpbench.ram_budget;
      json_int "max_threads" Httpbench.max_threads;
      json_int "max_conns" Httpbench.max_conns;
      json_int "backlog" Httpbench.backlog; json_str "unit" "req/s" ]
    (List.map
       (fun r ->
         json_obj
           [ json_str "stack" (Httpbench.config_name r.Httpbench.r_config);
             json_str "mode" (Httpbench.mode_name r.Httpbench.r_mode);
             json_int "clients" r.Httpbench.r_clients;
             json_int "requests" r.Httpbench.r_requests;
             json_float "duration_ms" r.Httpbench.r_duration_ms;
             json_float "rps" r.Httpbench.r_rps;
             json_float "p50_us" r.Httpbench.r_p50_us;
             json_float "p99_us" r.Httpbench.r_p99_us;
             json_int "peak_active" r.Httpbench.r_peak_active;
             json_int "accepted" r.Httpbench.r_accepted;
             json_int "responses" r.Httpbench.r_responses;
             json_int "shed" r.Httpbench.r_shed;
             json_int "listen_overflow" r.Httpbench.r_listen_overflow;
             json_int "protocol_errors" r.Httpbench.r_protocol_errors;
             json_int "mismatches" r.Httpbench.r_mismatches;
             json_int "reactor_sleeps" r.Httpbench.r_reactor_sleeps;
             json_int "reactor_spurious" r.Httpbench.r_reactor_spurious ])
       rows)

(* ---------------- smp: multi-CPU scale-out ---------------- *)

let smp_header () =
  Printf.printf "%-6s %8s %10s %10s %10s %8s %8s %8s %6s  %s\n%!" "ncpus"
    "clients" "req/s" "p50 (us)" "p99 (us)" "hw-rss" "netisr" "drops" "spins"
    "cpu share"

let smp_row r =
  Printf.printf "%-6d %8d %10.0f %10.1f %10.1f %8d %8d %8d %6d  [%s]\n%!"
    r.Smpbench.r_ncpus r.Smpbench.r_clients r.Smpbench.r_rps r.Smpbench.r_p50_us
    r.Smpbench.r_p99_us r.Smpbench.r_rss_steered r.Smpbench.r_netisr_queued
    r.Smpbench.r_netisr_drops r.Smpbench.r_spin_contentions
    (String.concat " "
       (Array.to_list
          (Array.map (fun f -> Printf.sprintf "%.2f" f) r.Smpbench.r_cpu_share)))

let smp_check r =
  if r.Smpbench.r_mismatches > 0 then
    failwith "smp: response was not byte-exact";
  if r.Smpbench.r_responses <> r.Smpbench.r_requests then
    failwith "smp: not every request got a 200";
  if r.Smpbench.r_spin_contentions > 0 then
    failwith "smp: spinlock contention on the per-flow hot path";
  if r.Smpbench.r_netisr_drops > 0 then failwith "smp: netisr queue overflowed"

let smp_speedup rows ~clients ~ncpus =
  let at n =
    List.find
      (fun r -> r.Smpbench.r_ncpus = n && r.Smpbench.r_clients = clients)
      rows
  in
  (at ncpus).Smpbench.r_rps /. (at 1).Smpbench.r_rps

let smp () =
  section_header
    "SMP: netisr-sharded reactor httpd, RSS flow steering (req/s vs CPUs)";
  smp_header ();
  let rows =
    List.concat_map
      (fun clients ->
        List.map
          (fun ncpus ->
            let r = Smpbench.run ~ncpus ~clients () in
            smp_row r;
            smp_check r;
            r)
          [ 1; 2; 4; 8 ])
      [ 256; 1024; 2048 ]
  in
  print_newline ();
  List.iter
    (fun clients ->
      Printf.printf "@%d clients: 2 CPUs %.2fx, 4 CPUs %.2fx, 8 CPUs %.2fx\n"
        clients
        (smp_speedup rows ~clients ~ncpus:2)
        (smp_speedup rows ~clients ~ncpus:4)
        (smp_speedup rows ~clients ~ncpus:8))
    [ 256; 1024; 2048 ];
  List.iter
    (fun clients ->
      if smp_speedup rows ~clients ~ncpus:4 < 3.0 then
        failwith
          (Printf.sprintf "smp: 4-CPU speedup under 3x at %d clients" clients))
    [ 1024; 2048 ];
  print_endline "\nsame payload bytes at every width; flows pinned to their RSS";
  print_endline "home CPU, the listen socket accepting on CPU 0";
  write_json "BENCH_smp.json" "rows"
    [ json_str "bench" "smp"; json_int "file_bytes" Smpbench.file_bytes;
      json_int "backlog" Smpbench.backlog; json_str "unit" "req/s" ]
    (List.map
       (fun r ->
         json_obj
           ([ json_int "ncpus" r.Smpbench.r_ncpus;
              json_int "clients" r.Smpbench.r_clients;
              json_int "requests" r.Smpbench.r_requests;
              json_float "duration_ms" r.Smpbench.r_duration_ms;
              json_float "rps" r.Smpbench.r_rps;
              json_float "p50_us" r.Smpbench.r_p50_us;
              json_float "p99_us" r.Smpbench.r_p99_us;
              json_int "responses" r.Smpbench.r_responses;
              json_int "mismatches" r.Smpbench.r_mismatches;
              json_int "rss_steered" r.Smpbench.r_rss_steered;
              json_int "netisr_queued" r.Smpbench.r_netisr_queued;
              json_int "netisr_drops" r.Smpbench.r_netisr_drops;
              json_int "spin_contentions" r.Smpbench.r_spin_contentions ]
           @ Array.to_list
               (Array.mapi
                  (fun i f -> json_float (Printf.sprintf "cpu%d_share" i) f)
                  r.Smpbench.r_cpu_share)))
       rows)

(* ---------------- smpsmoke: CI gate for SMP sharding ---------------- *)

let smpsmoke () =
  section_header "SMP smoke: 256-client sharding gates (fails loudly on regression)";
  smp_header ();
  let r1 = Smpbench.run ~ncpus:1 ~clients:256 () in
  smp_row r1;
  smp_check r1;
  let r4 = Smpbench.run ~ncpus:4 ~clients:256 () in
  smp_row r4;
  smp_check r4;
  if r4.Smpbench.r_rps <= r1.Smpbench.r_rps then
    failwith "smpsmoke: 4 CPUs not faster than 1";
  if r4.Smpbench.r_rss_steered + r4.Smpbench.r_netisr_queued = 0 then
    failwith "smpsmoke: no frames were ever steered (sharding inert?)";
  print_endline "byte-exact at both widths; 4-CPU req/s strictly higher; hot path lock-free"

(* ---------------- httpsmoke: CI gate for the asyncio path ---------------- *)

let httpsmoke () =
  section_header "HTTP smoke: 64 concurrent clients, both stacks, both serving shapes";
  http_header ();
  List.iter
    (fun config ->
      let run mode = Httpbench.run ~config ~mode ~clients:64 () in
      let th = run Httpbench.Threads in
      http_row th;
      let re = run Httpbench.Reactor in
      http_row re;
      http_check th;
      http_check re;
      if re.Httpbench.r_rps < th.Httpbench.r_rps then
        failwith "httpsmoke: reactor slower than thread-per-connection")
    [ Httpbench.Freebsd_com; Httpbench.Linux_com ];
  print_endline "\nzero protocol errors, every response byte-exact, reactor >= threaded req/s"

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
        (if r.Netbench.byte_exact then "yes" else "NO");
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
  (* 3) batching: a 128-client connect burst against the OSKit config must
     coalesce frames — more than one frame per glue crossing on average. *)
  let r =
    fast_flags true (fun () ->
        Httpbench.run ~config:Httpbench.Oskit_com ~mode:Httpbench.Reactor ~clients:128 ())
  in
  http_check r;
  let polls = Cost.counters.Cost.rx_polls in
  let frames = Cost.counters.Cost.rx_batched_frames in
  Printf.printf "http 128 clients (OSKit, reactor): %d frames over %d polls (%.2f frames/poll)\n%!"
    frames polls
    (float_of_int frames /. float_of_int (max 1 polls));
  if polls = 0 then failwith "rttsmoke: batched receive path never polled";
  if frames <= polls then failwith "rttsmoke: mean frames per poll not > 1";
  print_endline "\nbyte-exact with everything on; RTT strictly lower; batching engaged"

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

let longfat () =
  section_header
    "Longfat: ttcp over stretched wires (wscale + NewReno + buffer autotuning)";
  print_endline
    "default = seed config (16-bit windows, fixed buffers); manual-bdp =\n\
     wscale on, both ends hand-sized to 2x BDP; autotune = wscale on, the\n\
     stacks grow their own buffers.  100 Mbps wire, netem seed 42.\n";
  Printf.printf "%-8s %7s %6s %-11s %10s %9s %10s %11s\n" "stack" "rtt" "loss"
    "buffers" "Mbit/s" "rexmits" "rcv buf" "byte-exact";
  let rows =
    List.concat_map
      (fun config ->
        List.concat_map
          (fun rtt_ms ->
            let rtt_ns = int_of_float (rtt_ms *. 1e6) in
            List.concat_map
              (fun loss ->
                List.map
                  (fun (mode_name, bufmode) ->
                    let bytes = longfat_bytes ~rtt_ns ~loss in
                    let r =
                      Netbench.longfat_transfer ~seed:42 ~loss ~config ~rtt_ns
                        ~bufmode ~bytes ()
                    in
                    Printf.printf "%-8s %5.1fms %5.1f%% %-11s %10.2f %9d %10d %11s\n%!"
                      (Netbench.config_name config) rtt_ms (loss *. 100.0)
                      mode_name r.Netbench.lf_mbit r.Netbench.lf_rexmits
                      r.Netbench.lf_rcv_buf
                      (if r.Netbench.lf_byte_exact then "yes" else "NO");
                    if not r.Netbench.lf_byte_exact then
                      failwith "longfat: transfer was not byte-exact";
                    config, rtt_ms, loss, mode_name, bytes, r)
                  longfat_modes)
              [ 0.0; 0.01; 0.03 ])
          [ 0.1; 1.0; 10.0; 50.0 ])
      [ Netbench.Freebsd; Netbench.Linux ]
  in
  (* The tentpole claims, asserted at generation time so the committed
     JSON can't drift from them: at 50 ms / 0% loss, scaled windows buy
     >= 5x the seed throughput, and autotuning lands within 10% of the
     hand-sized buffers — in both stacks. *)
  let cell config mode =
    let _, _, _, _, _, r =
      List.find
        (fun (c, rtt, loss, m, _, _) ->
          c = config && rtt = 50.0 && loss = 0.0 && m = mode)
        rows
    in
    r.Netbench.lf_mbit
  in
  List.iter
    (fun config ->
      let dflt = cell config "default" in
      let manual = cell config "manual-bdp" in
      let auto = cell config "autotune" in
      Printf.printf
        "\n%s @50ms/0%%: default %.2f, manual-bdp %.2f (%.1fx), autotune %.2f (%.0f%% of manual)\n"
        (Netbench.config_name config) dflt manual (manual /. dflt) auto
        (100.0 *. auto /. manual);
      if manual < 5.0 *. dflt then
        failwith "longfat: scaled windows under 5x the seed throughput at 50ms";
      if auto < 0.9 *. manual then
        failwith "longfat: autotuned throughput under 90% of manual BDP sizing")
    [ Netbench.Freebsd; Netbench.Linux ];
  write_json "BENCH_longfat.json" "rows"
    [ json_str "bench" "longfat"; json_str "unit" "Mbit/s";
      json_int "wire_mbit" 100; json_int "seed" 42 ]
    (List.map
       (fun (config, rtt_ms, loss, mode_name, bytes, r) ->
         json_obj
           [ json_str "system" (Netbench.config_name config);
             json_float "rtt_ms" rtt_ms;
             json_float "loss" loss;
             json_str "buffers" mode_name;
             json_int "bytes" bytes;
             json_float "mbit" r.Netbench.lf_mbit;
             json_int "rexmits" r.Netbench.lf_rexmits;
             json_int "rcv_buf" r.Netbench.lf_rcv_buf;
             json_str "byte_exact" (if r.Netbench.lf_byte_exact then "yes" else "no") ])
       rows)

(* ---------------- longfatsmoke: CI gate for long-fat-pipe TCP ---------------- *)

let longfatsmoke () =
  section_header "Longfat smoke: wscale/NewReno/autotune gates (fails loudly on regression)";
  (* 1) byte-exactness with everything on, under loss, at WAN RTT — both
     stacks exercise wscale negotiation, dup-ACK recovery, and autotuning. *)
  List.iter
    (fun config ->
      let r =
        Netbench.longfat_transfer ~seed:42 ~loss:0.01 ~config
          ~rtt_ns:10_000_000 ~bufmode:Netbench.Lf_autotune
          ~bytes:(1024 * 1024) ()
      in
      Printf.printf "%-8s 10ms 1%% autotune: %8.2f Mbit/s, %d rexmits, byte-exact %s\n%!"
        (Netbench.config_name config) r.Netbench.lf_mbit r.Netbench.lf_rexmits
        (if r.Netbench.lf_byte_exact then "yes" else "NO");
      if not r.Netbench.lf_byte_exact then
        failwith "longfatsmoke: lossy scaled-window transfer not byte-exact";
      if r.Netbench.lf_rexmits = 0 then
        failwith "longfatsmoke: netem loss produced no retransmissions")
    [ Netbench.Freebsd; Netbench.Linux ];
  (* 2) autotuning holds its own against hand-sized buffers at 50 ms. *)
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
    [ Netbench.Freebsd; Netbench.Linux ];
  (* 3) the persist timer probes through a forced zero-window stall. *)
  let probes, exact = Netbench.zero_window_run () in
  Printf.printf "zero-window stall: %d persist probes, byte-exact %s\n%!" probes
    (if exact then "yes" else "NO");
  if probes = 0 then failwith "longfatsmoke: persist timer never probed";
  if not exact then failwith "longfatsmoke: zero-window run not byte-exact";
  print_endline
    "\nbyte-exact under loss; >=5x at 50ms; autotune >= 90% of manual; probes fire"

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

let overload_flood_matrix () =
  List.concat_map
    (fun server ->
      List.concat_map
        (fun defense ->
          List.map
            (fun flood ->
              Overloadbench.flood_run ~server ~defense ~flood
                ~legit:overload_legit ~bytes_per_client:overload_bytes_per_client
                ())
            [ 0; overload_flood_syns ])
        [ false; true ])
    overload_servers

let overload_alloc_matrix () =
  List.concat_map
    (fun server ->
      List.map
        (fun (prob, seed) ->
          Overloadbench.alloc_run ~server ~prob ~seed ~bytes:overload_soak_bytes ())
        [ (0.0, 42); (0.001, 42); (0.01, 43) ])
    overload_servers

let overload_loris_matrix () =
  List.map (fun guard -> Overloadbench.loris_run ~guard ~loris:8 ~legit:4 ()) [ false; true ]

let overload () =
  section_header "overload: SYN flood x alloc failure x Slowloris";
  let floods = overload_flood_matrix () in
  Printf.printf "%-8s %-8s %6s %12s %10s %8s %10s %9s\n" "server" "defense"
    "flood" "legit-served" "goodput" "cache" "completed" "overflow";
  List.iter
    (fun r ->
      Printf.printf "%-8s %-8s %6d %8d/%-3d %7.1f Mb %8d %10d %9d\n"
        (Overloadbench.server_name r.Overloadbench.fl_server)
        (if r.Overloadbench.fl_defense then "on" else "off")
        r.Overloadbench.fl_flood r.Overloadbench.fl_served
        r.Overloadbench.fl_legit r.Overloadbench.fl_goodput_mbit
        r.Overloadbench.fl_syncache_added r.Overloadbench.fl_completed
        r.Overloadbench.fl_listen_overflow)
    floods;
  let allocs = overload_alloc_matrix () in
  Printf.printf "\n%-8s %6s %10s %10s %8s %9s %6s\n" "server" "prob" "goodput"
    "byte-exact" "draws" "failures" "drops";
  List.iter
    (fun r ->
      Printf.printf "%-8s %6.3f %7.1f Mb %10s %8d %9d %6d\n"
        (Overloadbench.server_name r.Overloadbench.al_server)
        r.Overloadbench.al_prob r.Overloadbench.al_goodput_mbit
        (if r.Overloadbench.al_byte_exact then "yes" else "NO")
        r.Overloadbench.al_draws r.Overloadbench.al_failures
        r.Overloadbench.al_nomem_drops)
    allocs;
  let lorises = overload_loris_matrix () in
  Printf.printf "\n%-6s %6s %13s %15s %5s %11s\n" "guard" "loris" "legit-served"
    "deadline-cuts" "shed" "peak-active";
  List.iter
    (fun r ->
      Printf.printf "%-6s %6d %9d/%-3d %15d %5d %11d\n"
        (if r.Overloadbench.lo_guard then "on" else "off")
        r.Overloadbench.lo_loris r.Overloadbench.lo_served
        r.Overloadbench.lo_legit r.Overloadbench.lo_deadline_closed
        r.Overloadbench.lo_shed r.Overloadbench.lo_peak_active)
    lorises;
  write_json "BENCH_overload.json" "rows"
    [ json_str "bench" "overload"; json_int "flood_syns" overload_flood_syns;
      json_int "legit_clients" overload_legit;
      json_int "bytes_per_client" overload_bytes_per_client;
      json_int "soak_bytes" overload_soak_bytes; json_str "unit" "Mbit/s" ]
    (List.map
       (fun r ->
         json_obj
           [ json_str "kind" "flood";
             json_str "server" (Overloadbench.server_name r.Overloadbench.fl_server);
             json_str "defense" (if r.Overloadbench.fl_defense then "on" else "off");
             json_int "flood_syns" r.Overloadbench.fl_flood;
             json_int "legit" r.Overloadbench.fl_legit;
             json_int "served" r.Overloadbench.fl_served;
             json_int "bytes" r.Overloadbench.fl_bytes;
             json_float "goodput_mbit" r.Overloadbench.fl_goodput_mbit;
             json_int "syncache_added" r.Overloadbench.fl_syncache_added;
             json_int "handshakes_completed" r.Overloadbench.fl_completed;
             json_int "listen_overflow" r.Overloadbench.fl_listen_overflow ])
       floods
    @ List.map
        (fun r ->
          json_obj
            [ json_str "kind" "alloc";
              json_str "server" (Overloadbench.server_name r.Overloadbench.al_server);
              json_float "fail_prob" r.Overloadbench.al_prob;
              json_int "bytes" r.Overloadbench.al_bytes;
              json_str "byte_exact" (if r.Overloadbench.al_byte_exact then "yes" else "no");
              json_float "goodput_mbit" r.Overloadbench.al_goodput_mbit;
              json_int "draws" r.Overloadbench.al_draws;
              json_int "failures" r.Overloadbench.al_failures;
              json_int "nomem_drops" r.Overloadbench.al_nomem_drops ])
        allocs
    @ List.map
        (fun r ->
          json_obj
            [ json_str "kind" "loris";
              json_str "guard" (if r.Overloadbench.lo_guard then "on" else "off");
              json_int "loris" r.Overloadbench.lo_loris;
              json_int "legit" r.Overloadbench.lo_legit;
              json_int "served" r.Overloadbench.lo_served;
              json_int "deadline_closed" r.Overloadbench.lo_deadline_closed;
              json_int "shed" r.Overloadbench.lo_shed;
              json_int "peak_active" r.Overloadbench.lo_peak_active ])
        lorises)

(* ---------------- overloadsmoke: CI gate for overload survival ---------------- *)

let overloadsmoke () =
  section_header "overloadsmoke: overload-survival CI gate";
  (* 1) with the defense on, a 10x SYN flood must leave every legitimate
     client served and goodput within 70% of the clean run. *)
  List.iter
    (fun server ->
      let name = Overloadbench.server_name server in
      let clean =
        Overloadbench.flood_run ~server ~defense:true ~flood:0
          ~legit:overload_legit ~bytes_per_client:overload_bytes_per_client ()
      in
      let flooded =
        Overloadbench.flood_run ~server ~defense:true ~flood:overload_flood_syns
          ~legit:overload_legit ~bytes_per_client:overload_bytes_per_client ()
      in
      let ratio =
        flooded.Overloadbench.fl_goodput_mbit /. clean.Overloadbench.fl_goodput_mbit
      in
      Printf.printf
        "%s defended: clean %.1f Mb, flooded %.1f Mb (ratio %.2f), served %d/%d\n%!"
        name clean.Overloadbench.fl_goodput_mbit flooded.Overloadbench.fl_goodput_mbit
        ratio flooded.Overloadbench.fl_served flooded.Overloadbench.fl_legit;
      if flooded.Overloadbench.fl_served < overload_legit then
        failwith (Printf.sprintf "overloadsmoke: %s dropped a legit client under flood" name);
      if ratio < 0.70 then
        failwith (Printf.sprintf "overloadsmoke: %s flooded goodput under 70%% of clean" name);
      if flooded.Overloadbench.fl_syncache_added < overload_flood_syns then
        failwith (Printf.sprintf "overloadsmoke: %s syncache missed flood SYNs" name))
    overload_servers;
  (* 2) a 1% allocation-failure soak must finish byte-exact with the
     injector demonstrably firing, and without a crash. *)
  List.iter
    (fun server ->
      let r =
        Overloadbench.alloc_run ~server ~prob:0.01 ~seed:43
          ~bytes:overload_soak_bytes ()
      in
      Printf.printf "%s 1%% soak: byte-exact %s, %d failures, %d drops\n%!"
        (Overloadbench.server_name r.Overloadbench.al_server)
        (if r.Overloadbench.al_byte_exact then "yes" else "NO")
        r.Overloadbench.al_failures r.Overloadbench.al_nomem_drops;
      if not r.Overloadbench.al_byte_exact then
        failwith "overloadsmoke: soak transfer not byte-exact";
      if r.Overloadbench.al_failures = 0 then
        failwith "overloadsmoke: soak injector never fired")
    overload_servers;
  (* 3) the guarded httpd reclaims Slowloris slots and serves the
     late-arriving legitimate clients. *)
  let r = Overloadbench.loris_run ~guard:true ~loris:8 ~legit:4 () in
  Printf.printf "guarded httpd: served %d/%d, %d deadline cuts\n%!"
    r.Overloadbench.lo_served r.Overloadbench.lo_legit
    r.Overloadbench.lo_deadline_closed;
  if r.Overloadbench.lo_served < r.Overloadbench.lo_legit then
    failwith "overloadsmoke: guarded httpd dropped a legit client";
  if r.Overloadbench.lo_deadline_closed = 0 then
    failwith "overloadsmoke: header deadline never fired";
  print_endline
    "\nflood goodput >= 70% of clean; soak byte-exact; Slowloris slots reclaimed"

(* ---------------- event: kqueue + timing-wheel complexity ---------------- *)

(* The event-core claim: per-pass dispatch work tracks the ready set and
   timer work tracks the due set, no matter how much idle state is
   registered.  Both sweeps hold the hot population fixed and grow the
   idle population three decades; the flat column is the result. *)
let event () =
  section_header "Event core: O(ready) dispatch, O(due) timers";
  Printf.printf
    "hot set fixed (%d ready watches / %d due timers), idle population sweeps\n\n"
    Eventbench.hot_set Eventbench.hot_set;
  Printf.printf "%-10s %14s %14s %12s\n" "idle" "scan visits" "kq visits" "dispatches";
  let krows =
    List.map
      (fun idle ->
        let r =
          Eventbench.kq_sweep ~idle ~hot:Eventbench.hot_set
            ~rounds:Eventbench.kq_rounds
        in
        Printf.printf "%-10d %14d %14d %12d\n" r.Eventbench.kr_idle
          r.Eventbench.kr_scan_visits r.Eventbench.kr_kq_visits
          r.Eventbench.kr_dispatches;
        r)
      Eventbench.idle_sweep
  in
  Printf.printf "\n%-10s %14s %10s %10s %14s\n" "idle" "wheel work" "fires"
    "cascades" "scan visits";
  let wrows =
    List.map
      (fun idle ->
        let r = Eventbench.wheel_run ~idle ~hot:Eventbench.hot_set in
        Printf.printf "%-10d %14d %10d %10d %14d\n" r.Eventbench.wr_idle
          r.Eventbench.wr_work r.Eventbench.wr_fires r.Eventbench.wr_cascades
          r.Eventbench.wr_scan_visits;
        if r.Eventbench.wr_early <> 0 || r.Eventbench.wr_late <> 0
           || r.Eventbench.wr_missed <> 0
        then
          failwith
            (Printf.sprintf "event: timing contract broken (early %d late %d missed %d)"
               r.Eventbench.wr_early r.Eventbench.wr_late r.Eventbench.wr_missed);
        r)
      Eventbench.idle_sweep
  in
  print_endline "\n(timing contract held: no early fires, none > 1 granule late)";
  write_json "BENCH_event.json" "rows"
    [ json_str "bench" "event";
      json_int "hot" Eventbench.hot_set;
      json_int "kq_rounds" Eventbench.kq_rounds;
      json_int "wheel_ticks" Eventbench.wheel_window_ticks ]
    (List.map
       (fun (r : Eventbench.kq_row) ->
         json_obj
           [ json_str "kind" "kqueue";
             json_int "idle" r.Eventbench.kr_idle;
             json_int "scan_visits" r.Eventbench.kr_scan_visits;
             json_int "kq_visits" r.Eventbench.kr_kq_visits;
             json_int "dispatches" r.Eventbench.kr_dispatches ])
       krows
    @ List.map
        (fun (r : Eventbench.wheel_row) ->
          json_obj
            [ json_str "kind" "wheel";
              json_int "idle" r.Eventbench.wr_idle;
              json_int "work" r.Eventbench.wr_work;
              json_int "fires" r.Eventbench.wr_fires;
              json_int "cascades" r.Eventbench.wr_cascades;
              json_int "scan_visits" r.Eventbench.wr_scan_visits ])
        wrows)

let eventsmoke () =
  section_header "event CI gate";
  (* 1) dispatch work must not grow with the idle population. *)
  let a = Eventbench.kq_sweep ~idle:100 ~hot:128 ~rounds:10 in
  let b = Eventbench.kq_sweep ~idle:10_000 ~hot:128 ~rounds:10 in
  if b.Eventbench.kr_kq_visits <> a.Eventbench.kr_kq_visits then
    failwith "eventsmoke: kq visits grew with idle watches";
  if b.Eventbench.kr_scan_visits < 10 * b.Eventbench.kr_kq_visits then
    failwith "eventsmoke: scan strawman implausibly cheap (harness broken?)";
  Printf.printf "kq visits flat at %d as idle grows 100 -> 10000 (scan: %d -> %d)\n"
    b.Eventbench.kr_kq_visits a.Eventbench.kr_scan_visits
    b.Eventbench.kr_scan_visits;
  (* 2) wheel timing contract: zero missed, zero early, <= 1 granule late;
     and wheel work must stay two orders below the every-tick scan. *)
  let w = Eventbench.wheel_run ~idle:10_000 ~hot:128 in
  if w.Eventbench.wr_early <> 0 || w.Eventbench.wr_late <> 0
     || w.Eventbench.wr_missed <> 0
  then
    failwith
      (Printf.sprintf "eventsmoke: timing contract broken (early %d late %d missed %d)"
         w.Eventbench.wr_early w.Eventbench.wr_late w.Eventbench.wr_missed);
  if w.Eventbench.wr_work >= w.Eventbench.wr_scan_visits / 100 then
    failwith "eventsmoke: wheel work not O(due)";
  Printf.printf "wheel: %d fires on time, work %d vs scan %d\n" w.Eventbench.wr_fires
    w.Eventbench.wr_work w.Eventbench.wr_scan_visits;
  (* 3) full stack with both flags on: the served bytes must be exact. *)
  let saved_kq = Cost.config.Cost.kq
  and saved_tw = Cost.config.Cost.timer_wheel in
  Cost.config.Cost.kq <- true;
  Cost.config.Cost.timer_wheel <- true;
  Fun.protect
    ~finally:(fun () ->
      Cost.config.Cost.kq <- saved_kq;
      Cost.config.Cost.timer_wheel <- saved_tw)
  @@ fun () ->
  let r =
    Httpbench.run ~config:Httpbench.Oskit_com ~mode:Httpbench.Reactor ~clients:64 ()
  in
  if r.Httpbench.r_mismatches <> 0 then
    failwith "eventsmoke: byte mismatch with kq+wheel on";
  if r.Httpbench.r_responses <> r.Httpbench.r_requests then
    failwith
      (Printf.sprintf "eventsmoke: %d/%d responses with kq+wheel on"
         r.Httpbench.r_responses r.Httpbench.r_requests);
  Printf.printf "httpd with kq+timer_wheel: %d/%d responses, all byte-exact\n"
    r.Httpbench.r_responses r.Httpbench.r_requests;
  print_endline "\nflat O(ready) dispatch; wheel contract exact; kq+wheel httpd byte-exact"

(* ---------------- file: the keep-alive + sendfile content path ---------------- *)

let file_header () =
  Printf.printf "%-8s %-8s %-14s %6s %7s %6s %8s %10s %9s %9s %8s %8s %6s\n%!"
    "stack" "mode" "knobs" "files" "fbytes" "reqs" "req/s" "copied/req" "sf-bodies"
    "fallback" "bc-hit" "bc-miss" "bad"

let file_row (r : Filebench.result) =
  Printf.printf "%-8s %-8s %-14s %6d %7d %6d %8.0f %10.1f %9d %9d %8d %8d %6d\n%!"
    (Filebench.config_name r.Filebench.r_config)
    (Filebench.mode_name r.Filebench.r_mode)
    (Filebench.knobs_name r.Filebench.r_knobs
    ^ if r.Filebench.r_pipeline > 1 then Printf.sprintf "+p%d" r.Filebench.r_pipeline
      else "")
    r.Filebench.r_files r.Filebench.r_file_bytes r.Filebench.r_requests
    r.Filebench.r_rps r.Filebench.r_copied_per_req r.Filebench.r_sendfile_bodies
    r.Filebench.r_sendfile_fallbacks r.Filebench.r_bufcache_hits
    r.Filebench.r_bufcache_misses
    (r.Filebench.r_mismatches + r.Filebench.r_protocol_errors)

let file_check (r : Filebench.result) =
  if r.Filebench.r_mismatches > 0 then
    failwith "file: response was not byte-exact";
  if r.Filebench.r_protocol_errors > 0 then failwith "file: protocol errors";
  if r.Filebench.r_responses < r.Filebench.r_requests then
    failwith "file: not every request got a 200"

let file_json_row (r : Filebench.result) =
  json_obj
    [ json_str "stack" (Filebench.config_name r.Filebench.r_config);
      json_str "mode" (Filebench.mode_name r.Filebench.r_mode);
      json_str "knobs" (Filebench.knobs_name r.Filebench.r_knobs);
      json_int "clients" r.Filebench.r_clients;
      json_int "pipeline" r.Filebench.r_pipeline;
      json_int "requests" r.Filebench.r_requests;
      json_int "files" r.Filebench.r_files;
      json_int "file_bytes" r.Filebench.r_file_bytes;
      json_float "duration_ms" r.Filebench.r_duration_ms;
      json_float "rps" r.Filebench.r_rps;
      json_int "responses" r.Filebench.r_responses;
      json_int "reused" r.Filebench.r_reused;
      json_int "pipelined" r.Filebench.r_pipelined;
      json_int "idle_closed" r.Filebench.r_idle_closed;
      json_int "capped" r.Filebench.r_capped;
      json_int "accepted" r.Filebench.r_accepted;
      json_int "sendfile_bodies" r.Filebench.r_sendfile_bodies;
      json_int "sendfile_fallbacks" r.Filebench.r_sendfile_fallbacks;
      json_int "body_bytes_copied" r.Filebench.r_body_bytes_copied;
      json_float "copied_per_req" r.Filebench.r_copied_per_req;
      json_int "bufcache_hits" r.Filebench.r_bufcache_hits;
      json_int "bufcache_misses" r.Filebench.r_bufcache_misses;
      json_int "protocol_errors" r.Filebench.r_protocol_errors;
      json_int "mismatches" r.Filebench.r_mismatches ]

let file () =
  section_header
    "FILE: HTTP/1.1 keep-alive + sendfile content path (req/s, body copies/request)";
  file_header ();
  let cell ?(config = Filebench.Freebsd_com) ?(mode = Filebench.Reactor)
      ?(clients = 16) ?(reqs = 125) ?(files = 16) ?(file_bytes = 4096)
      ?(pipeline = 1) knobs =
    let r =
      Filebench.run ~config ~mode ~knobs ~pipeline ~clients ~reqs_per_client:reqs
        ~files ~file_bytes ()
    in
    file_row r;
    file_check r;
    r
  in
  (* The knob matrix: both stacks (plus the OSKit glue shape), both
     serving shapes, all three knob sets, 2000 requests per cell on the
     small (in-cache) working set. *)
  let matrix =
    List.concat_map
      (fun config ->
        List.concat_map
          (fun mode ->
            List.map
              (fun knobs -> cell ~config ~mode knobs)
              [ Filebench.http10; Filebench.keepalive; Filebench.ka_sendfile ])
          [ Filebench.Reactor; Filebench.Threads ])
      [ Filebench.Freebsd_com; Filebench.Linux_com; Filebench.Oskit_com ]
  in
  (* Working set larger than the 64-block cache: eviction under load. *)
  print_newline ();
  let thrash =
    List.map
      (fun knobs -> cell ~files:128 knobs)
      [ Filebench.keepalive; Filebench.ka_sendfile ]
  in
  (* Body-size sweep: the copy path scales linearly with the body, the
     warm sendfile path stays at zero copied bytes per request. *)
  print_newline ();
  let sweep =
    List.concat_map
      (fun file_bytes ->
        List.map
          (fun knobs -> cell ~files:4 ~reqs:63 ~file_bytes knobs)
          [ Filebench.keepalive; Filebench.ka_sendfile ])
      [ 1024; 4096; 16384; 65536 ]
  in
  (* Headline scale: 10k requests over reused connections vs 10k fresh
     connections, FreeBSD reactor, on the small-object workload (1 KB —
     the median web object of the period) where connect/teardown is the
     dominant per-request cost.  The reused-connection rows run both
     serial (depth 1) and pipelined (depth 8, the server's parse-ahead
     bound): pipelining is where persistent connections stop paying a
     per-request round trip, so the headline ratio is depth 8. *)
  print_newline ();
  let scale =
    cell ~clients:16 ~reqs:625 ~file_bytes:1024 Filebench.http10
    :: List.concat_map
         (fun knobs ->
           [ cell ~clients:16 ~reqs:625 ~file_bytes:1024 knobs;
             cell ~clients:16 ~reqs:625 ~file_bytes:1024 ~pipeline:8 knobs ])
         [ Filebench.keepalive; Filebench.ka_sendfile ]
  in
  let rps k p =
    (List.find
       (fun r -> r.Filebench.r_knobs = k && r.Filebench.r_pipeline = p)
       scale)
      .Filebench.r_rps
  in
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
  List.iter
    (fun r ->
      if r.Filebench.r_knobs = Filebench.ka_sendfile
         && r.Filebench.r_config <> Filebench.Linux_com
         && r.Filebench.r_body_bytes_copied <> 0
      then failwith "file: warm sendfile run copied body bytes")
    (matrix @ sweep @ scale);
  print_endline "\nLinux rows under ka+sendfile show the counted copy fallback: no sendv";
  print_endline "face on contiguous sk_buffs (Section 5's asymmetry at the app layer)";
  write_json "BENCH_file.json" "rows"
    [ json_str "bench" "file"; json_int "bufcache_blocks" 64;
      json_str "unit" "req/s" ]
    (List.map file_json_row (matrix @ thrash @ sweep @ scale))

(* ---------------- filesmoke: CI gate for the content path ---------------- *)

let filesmoke () =
  section_header "FILE smoke: keep-alive win, zero warm-cache copies, byte-exact";
  file_header ();
  let run ?(config = Filebench.Freebsd_com) ?(mode = Filebench.Reactor) knobs =
    let r =
      Filebench.run ~config ~mode ~knobs ~clients:64 ~reqs_per_client:4 ~files:16
        ~file_bytes:4096 ()
    in
    file_row r;
    file_check r;
    r
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
  ignore (run ~mode:Filebench.Threads Filebench.ka_sendfile);
  (* 4) Linux: no sendv face, so the counted fallback must carry it. *)
  let lx = run ~config:Filebench.Linux_com Filebench.ka_sendfile in
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
    "httpsmoke", httpsmoke;
    "rttsmoke", rttsmoke;
    "longfat", longfat;
    "longfatsmoke", longfatsmoke;
    "overload", overload;
    "overloadsmoke", overloadsmoke;
    "smp", smp;
    "smpsmoke", smpsmoke;
    "event", event;
    "eventsmoke", eventsmoke;
    "file", file;
    "filesmoke", filesmoke ]

(* Every argument is checked before anything runs: a misspelled section
   or flag exits 2 instead of silently testing nothing. *)
let () =
  let names =
    List.filter
      (function
        | "--sg" ->
            want_sg := true;
            false
        | "--json" ->
            want_json := true;
            false
        | _ -> true)
      (List.tl (Array.to_list Sys.argv))
  in
  (match List.filter (fun n -> not (List.mem_assoc n sections)) names with
  | [] -> ()
  | bad ->
      List.iter (fun n -> Printf.eprintf "unknown section or flag %S\n" n) bad;
      Printf.eprintf "usage: main.exe [--sg] [--json] [section ...]\nsections: %s\n"
        (String.concat " " (List.map fst sections));
      exit 2);
  let requested = match names with [] -> List.map fst sections | ns -> ns in
  print_endline "Flux OSKit reproduction — benchmark harness";
  Printf.printf "(virtual testbed: 2x 200MHz PCs, 100 Mbps Ethernet; %d-block runs)\n" blocks;
  List.iter (fun name -> (List.assoc name sections) ()) requested
