(* perfbench: the kit's benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]

   Runs workload W (oskit_net, linux_net, web, content) with inputs made
   from seed N, repeating it until S host seconds have passed (at least
   twice).  Every repetition must reproduce the first one's virtual-time
   numbers, cost counters and allocation exactly.  With --trace 0 the
   last line of standard output is a JSON object with the end-to-end
   metrics; with --trace 1 the workload is run once more traced, the
   traced run is checked against the untraced one bit for bit, and the
   JSON carries the per-layer metrics.  --trace-out writes the traced
   run's spans as Chrome trace-event JSON; nothing else is written.
   Exit status: 0 when every check passed, 1 when one failed, 2 on a
   usage error. *)

open Pb_sim

let usage () =
  prerr_endline
    "usage: main.exe --workload oskit_net|linux_net|web|content --seed N --seconds S \
     --trace 0|1 [--trace-out FILE]";
  exit 2

(* ---- what one repetition of a workload yields ---- *)

type outcome = {
  e2e : (string * float) list;  (* virtual-time end-to-end metrics *)
  samples : int;  (* latency samples behind p50_us/p99_us *)
  attempted : int;
  failed : int;
  mismatches : int;  (* wrong bytes: always a failed check *)
  guards : (string * bool) list;
  layer : (string * float) list;  (* per-layer metrics the run's data gives *)
}

let f = float_of_int
let ratio a b = if b = 0 then 0.0 else f a /. f b
let us ns = f ns /. 1e3

let sum_cells (r : rep) names get =
  List.fold_left (fun acc (n, facts) -> if List.mem n names then acc + get facts else acc) 0 r.cells

let counter r names get = sum_cells r names (fun x -> get x.counters)

(* Metrics from a traced cell's span aggregates and ledger. *)
let traced_cells (r : rep) names = List.filter (fun (n, _) -> List.mem n names) r.traces

let agg_sum r names span get =
  List.fold_left
    (fun acc (_, (t : traced)) ->
      match List.assoc_opt span t.aggs with Some a -> acc + get a | None -> acc)
    0 (traced_cells r names)

let per_item r names span = ratio (agg_sum r names span (fun a -> a.Pb_trace.incl_v)) (agg_sum r names span (fun a -> a.Pb_trace.items))
let per_call r names span = ratio (agg_sum r names span (fun a -> a.Pb_trace.incl_v)) (agg_sum r names span (fun a -> a.Pb_trace.calls))

let sock_spans r names get =
  List.fold_left
    (fun acc (_, (t : traced)) ->
      List.fold_left
        (fun acc (n, a) ->
          if String.length n > 15 && String.sub n 0 15 = "freebsd_net.so_" then acc + get a else acc)
        acc t.aggs)
    0 (traced_cells r names)

(* The ledger of the server machine's CPUs, summed over [names]: busy ns
   by layer. *)
let ledger_sum r names ~server =
  let tot = Array.make Pb_trace.nlayers 0 in
  List.iter
    (fun (_, (t : traced)) ->
      Array.iteri
        (fun mi cpus ->
          if t.machines.(mi) = server then
            Array.iter (fun layers -> Array.iteri (fun l v -> tot.(l) <- tot.(l) + v) layers) cpus)
        t.ledger)
    (traced_cells r names);
  tot

(* Layer metrics common to all workloads, from counters, pools and (on
   the traced run) spans and the ledger.  [ops] is the workload's unit of
   work in these cells. *)
let common_layers (r : rep) names ~ops ~frames ~server =
  let c = counter r names in
  let pool get = let h, m = sum_cells r names (fun x -> fst (get x)), sum_cells r names (fun x -> snd (get x)) in ratio h (h + m) in
  let ledger = ledger_sum r names ~server in
  let busy = Array.fold_left ( + ) 0 ledger in
  let share l = ratio ledger.(l) busy in
  [ "machine.frames_per_op", ratio frames ops;
    "com.rx_ns_per_frame", per_item r names "com.rx_push";
    "com.rx_frames_per_push", ratio (agg_sum r names "com.rx_push" (fun a -> a.Pb_trace.items)) (agg_sum r names "com.rx_push" (fun a -> a.Pb_trace.calls));
    "com.crossings_per_frame", ratio (c (fun x -> x.Cost.glue_crossings)) frames;
    "com.com_calls_per_frame", ratio (c (fun x -> x.Cost.com_calls)) frames;
    "com.linearized_per_kframe", 1000.0 *. ratio (c (fun x -> x.Cost.linearized_xmits)) frames;
    "com.sg_xmits", f (c (fun x -> x.Cost.sg_xmits));
    "linux_dev.xmit_ns_per_frame", per_item r names "linux_dev.xmit_push";
    "net.copies_per_kpkt", 1000.0 *. ratio (c (fun x -> x.Cost.copies)) frames;
    "net.copied_bytes_per_op", ratio (c (fun x -> x.Cost.copied_bytes)) ops;
    "net.cksum_bytes_per_op", ratio (c (fun x -> x.Cost.checksummed_bytes)) ops;
    "net.fastpath_hit_ratio",
    ratio (c (fun x -> x.Cost.fastpath_hits)) (c (fun x -> x.Cost.fastpath_hits + x.Cost.fastpath_fallbacks));
    "net.pcb_cache_hit_ratio",
    ratio (c (fun x -> x.Cost.pcb_cache_hits)) (c (fun x -> x.Cost.pcb_cache_hits + x.Cost.pcb_cache_misses));
    "freebsd_net.sock_ns_per_call",
    ratio (sock_spans r names (fun a -> a.Pb_trace.incl_v)) (sock_spans r names (fun a -> a.Pb_trace.calls));
    "malloc.mbuf_pool_hit_ratio", pool (fun x -> x.mbuf_pool);
    "malloc.skb_pool_hit_ratio", pool (fun x -> x.skb_pool);
    "smp.rss_steered", f (c (fun x -> x.Cost.rss_steered));
    "smp.netisr_queued", f (c (fun x -> x.Cost.netisr_queued));
    "smp.netisr_drops", f (c (fun x -> x.Cost.netisr_drops));
    "smp.spin_contentions", f (c (fun x -> x.Cost.spin_contentions));
    "event.kq_posted_per_op", ratio (c (fun x -> x.Cost.kq_posted)) ops;
    "event.kq_coalesced_ratio",
    ratio (c (fun x -> x.Cost.kq_coalesced)) (c (fun x -> x.Cost.kq_posted + x.Cost.kq_coalesced));
    "event.wheel_arms_per_op", ratio (c (fun x -> x.Cost.wheel_arms)) ops;
    "event.wheel_cascades", f (c (fun x -> x.Cost.wheel_cascades));
    "event.tick_visits", f (c (fun x -> x.Cost.tick_visits));
    "netbsd_fs.bufcache_hit_ratio",
    ratio (c (fun x -> x.Cost.bufcache_hits)) (c (fun x -> x.Cost.bufcache_hits + x.Cost.bufcache_misses));
    "netbsd_fs.blkio_reads_per_req", ratio (agg_sum r names "fdev.blkio_read" (fun a -> a.Pb_trace.calls)) ops;
    "netbsd_fs.blkio_ns_per_read", per_call r names "fdev.blkio_read";
    "netbsd_fs.lookup_ns", per_call r names "netbsd_fs.lookup";
    "ledger.unattributed_ns", f ledger.(Pb_trace.l_unattributed);
    "ledger.machine_share", share Pb_trace.l_machine;
    "ledger.com_share", share Pb_trace.l_com;
    "ledger.linux_dev_share", share Pb_trace.l_linux_dev;
    "ledger.socket_share", share Pb_trace.l_sock;
    "ledger.fs_share", share Pb_trace.l_fs;
    "ledger.blkio_share", share Pb_trace.l_blkio ]

let stack_layers prefix netstat ~cpu_ns_per_op =
  List.map (fun (k, v) -> prefix ^ "." ^ k, f v) netstat
  @ [ prefix ^ ".cpu_ns_per_op", cpu_ns_per_op ]

let httpd_layers (st : Httpd.stats) (rs : Reactor.stats) ~reqs ~server_machine_ns =
  [ "httpd.server_ns_per_req", ratio server_machine_ns reqs;
    "httpd.reused_ratio", ratio st.Httpd.reused st.Httpd.requests;
    "httpd.pipelined_ratio", ratio st.Httpd.pipelined st.Httpd.requests;
    "httpd.peak_active", f st.Httpd.peak_active;
    "httpd.protocol_errors", f st.Httpd.protocol_errors;
    "httpd.shed", f (st.Httpd.shed + st.Httpd.shed_503);
    "asyncio.reactor_visits_per_op", ratio rs.Reactor.visits reqs;
    "asyncio.reactor_spurious_ratio", ratio rs.Reactor.spurious rs.Reactor.dispatches;
    "netbsd_fs.sendfile_ratio", ratio st.Httpd.sendfile_bodies st.Httpd.responses;
    "netbsd_fs.copied_bytes_per_req", ratio st.Httpd.body_bytes_copied reqs ]

(* The guards: the layer a workload claims to stress sets its rate. *)
let cpu_guard ~server ~client = "server_busier_than_client", server > client
let wire_guard util = "wire_util_below_0.9", util < 0.9

let pct samples p = us (percentile samples p)

(* ---- the workloads ---- *)

let net kind ~seed =
  let cells = Pb_net.run ~kind ~seed in
  let get n = List.find (fun (c : Pb_net.cell) -> c.Pb_net.name = n) cells in
  let send = get "send" and recv = get "recv" and rtt = get "rtt" in
  let r = !rep in
  let data = [ "send"; "recv" ] in
  let kb = (send.Pb_net.payload + recv.Pb_net.payload) / 1024 in
  let frames = send.Pb_net.frames + recv.Pb_net.frames in
  let prefix = if kind = Pb_net.Linux then "linux_net" else "freebsd_net" in
  let sum g = List.fold_left (fun a c -> a + g c) 0 cells in
  { e2e =
      [ "send_mbit", send.Pb_net.mbit;
        "recv_mbit", recv.Pb_net.mbit;
        "p50_us", pct rtt.Pb_net.rtts_ns 0.50;
        "p99_us", pct rtt.Pb_net.rtts_ns 0.99;
        "rps", f (Array.length rtt.Pb_net.rtts_ns) *. 1e9 /. f rtt.Pb_net.dur_ns ];
    samples = Array.length rtt.Pb_net.rtts_ns;
    attempted = sum (fun c -> c.Pb_net.attempted);
    failed = sum (fun c -> c.Pb_net.failed);
    mismatches = 0;
    guards =
      [ cpu_guard ~server:send.Pb_net.server_busy ~client:send.Pb_net.client_busy;
        cpu_guard ~server:recv.Pb_net.server_busy ~client:recv.Pb_net.client_busy;
        wire_guard (max send.Pb_net.wire_util recv.Pb_net.wire_util) ];
    layer =
      [ "machine.events", f (sum (fun c -> c.Pb_net.events));
        "machine.wire_util", max send.Pb_net.wire_util recv.Pb_net.wire_util;
        "machine.nic_rx_dropped", f (sum (fun c -> c.Pb_net.nic_rx_dropped));
        "machine.server_busy_share", (send.Pb_net.server_busy +. recv.Pb_net.server_busy) /. 2.0;
        "machine.client_busy_share", (send.Pb_net.client_busy +. recv.Pb_net.client_busy) /. 2.0;
        "smp.busy_max_over_mean", 1.0;
        "smp.cpu0_busy_share", 1.0 ]
      @ common_layers r data ~ops:kb ~frames ~server:"pc-a"
      @ stack_layers prefix
          (List.map2 (fun (k, a) (_, b) -> k, a + b) send.Pb_net.netstat recv.Pb_net.netstat)
          ~cpu_ns_per_op:(ratio (send.Pb_net.server_busy_ns + recv.Pb_net.server_busy_ns) kb) }

let web ~seed =
  let w = Pb_web.run ~seed in
  let c = w.Pb_web.fixed in
  let r = !rep in
  let reqs = Array.length c.Pb_web.lat_ns in
  let ncpus = Array.length c.Pb_web.server_busy_cpu in
  let busy = Array.fold_left ( + ) 0 c.Pb_web.server_busy_cpu in
  let ledger = ledger_sum r Pb_web.fixed_names ~server:"pc-b" in
  let all = c :: w.Pb_web.probe_cells in
  { e2e =
      [ "send_mbit", f (reqs * (Pb_web.file_bytes + 8)) *. 8e3 /. f c.Pb_web.window_ns;
        "recv_mbit", f (reqs * 28) *. 8e3 /. f c.Pb_web.window_ns;
        "p50_us", pct c.Pb_web.lat_ns 0.50;
        "p99_us", pct c.Pb_web.lat_ns 0.99;
        "rps", w.Pb_web.capacity_rps ];
    samples = reqs;
    attempted = c.Pb_web.attempted;
    failed = c.Pb_web.failed;
    mismatches = List.fold_left (fun a (x : Pb_web.cell) -> a + x.Pb_web.mismatches) 0 all;
    guards =
      [ cpu_guard ~server:c.Pb_web.server_busy ~client:c.Pb_web.client_busy;
        wire_guard c.Pb_web.wire_util;
        ( "generator_lag_p99_below_p50_over_5",
          pct c.Pb_web.lag_ns 0.99 < pct c.Pb_web.lat_ns 0.50 /. 5.0 ) ];
    layer =
      [ "machine.events", f c.Pb_web.events;
        "machine.wire_util", c.Pb_web.wire_util;
        "machine.nic_rx_dropped", f c.Pb_web.nic_rx_dropped;
        "machine.server_busy_share", c.Pb_web.server_busy;
        "machine.client_busy_share", c.Pb_web.client_busy;
        "smp.busy_max_over_mean",
        ratio (Array.fold_left max 0 c.Pb_web.server_busy_cpu * ncpus) busy;
        "smp.cpu0_busy_share", ratio c.Pb_web.server_busy_cpu.(0) busy;
        "loadgen.lag_us_p99", pct c.Pb_web.lag_ns 0.99;
        "loadgen.outstanding_end", f c.Pb_web.outstanding_end ]
      @ common_layers r Pb_web.fixed_names ~ops:reqs ~frames:c.Pb_web.frames ~server:"pc-b"
      @ stack_layers "freebsd_net" c.Pb_web.netstat ~cpu_ns_per_op:(ratio busy reqs)
      @ httpd_layers c.Pb_web.httpd c.Pb_web.reactor ~reqs
          ~server_machine_ns:ledger.(Pb_trace.l_machine) }

let content ~seed =
  let c = Pb_content.run ~seed in
  let r = !rep in
  let reqs = Array.length c.Pb_content.lat_ns in
  let ledger = ledger_sum r [ "content" ] ~server:"pc-b" in
  let dur = f c.Pb_content.dur_ns in
  { e2e =
      [ "send_mbit", f c.Pb_content.body_bytes *. 8e3 /. dur;
        "recv_mbit", f (reqs * 40) *. 8e3 /. dur;
        "p50_us", pct c.Pb_content.lat_ns 0.50;
        "p99_us", pct c.Pb_content.lat_ns 0.99;
        "rps", f reqs *. 1e9 /. dur ];
    samples = reqs;
    attempted = c.Pb_content.attempted;
    failed = c.Pb_content.failed;
    mismatches = c.Pb_content.mismatches;
    guards =
      [ cpu_guard ~server:c.Pb_content.server_busy ~client:c.Pb_content.client_busy;
        wire_guard c.Pb_content.wire_util ];
    layer =
      [ "machine.events", f c.Pb_content.events;
        "machine.wire_util", c.Pb_content.wire_util;
        "machine.nic_rx_dropped", f c.Pb_content.nic_rx_dropped;
        "machine.server_busy_share", c.Pb_content.server_busy;
        "machine.client_busy_share", c.Pb_content.client_busy;
        "smp.busy_max_over_mean", 1.0;
        "smp.cpu0_busy_share", 1.0 ]
      @ common_layers r [ "content" ] ~ops:reqs ~frames:c.Pb_content.frames ~server:"pc-b"
      @ stack_layers "freebsd_net" c.Pb_content.netstat
          ~cpu_ns_per_op:(c.Pb_content.server_busy *. dur /. f reqs)
      @ httpd_layers c.Pb_content.httpd c.Pb_content.reactor ~reqs
          ~server_machine_ns:ledger.(Pb_trace.l_machine) }

let workloads =
  [ "oskit_net", net Pb_net.Oskit; "linux_net", net Pb_net.Linux; "web", web; "content", content ]

(* ---- metric schema ---- *)

let end_to_end =
  [ "send_mbit", "Mbit/s"; "recv_mbit", "Mbit/s"; "p50_us", "us"; "p99_us", "us"; "rps", "1/s";
    "setup_s", "s"; "alloc_mwords", "Mwords"; "peak_heap_mb", "MB" ]

(* Per-layer metrics and their units.  "vns" is virtual nanoseconds of
   the modelled 200 MHz machine; "ns" is host time. *)
let per_layer =
  [ "machine.events", "count"; "machine.host_ns_per_event", "ns"; "machine.frames_per_op", "count";
    "machine.wire_util", "ratio"; "machine.nic_rx_dropped", "count";
    "machine.server_busy_share", "ratio"; "machine.client_busy_share", "ratio";
    "com.rx_ns_per_frame", "vns"; "com.rx_frames_per_push", "count";
    "com.crossings_per_frame", "count"; "com.com_calls_per_frame", "count";
    "com.linearized_per_kframe", "count"; "com.sg_xmits", "count";
    "linux_dev.xmit_ns_per_frame", "vns";
    "net.copies_per_kpkt", "count"; "net.copied_bytes_per_op", "bytes";
    "net.cksum_bytes_per_op", "bytes"; "net.fastpath_hit_ratio", "ratio";
    "net.pcb_cache_hit_ratio", "ratio";
    "freebsd_net.rexmits", "count"; "freebsd_net.listen_overflow", "count";
    "freebsd_net.syncache_added", "count"; "freebsd_net.sock_ns_per_call", "vns";
    "freebsd_net.cpu_ns_per_op", "vns";
    "linux_net.rexmits", "count"; "linux_net.listen_overflow", "count";
    "linux_net.syncache_added", "count"; "linux_net.cpu_ns_per_op", "vns";
    "malloc.mbuf_pool_hit_ratio", "ratio"; "malloc.skb_pool_hit_ratio", "ratio";
    "smp.busy_max_over_mean", "ratio"; "smp.cpu0_busy_share", "ratio"; "smp.rss_steered", "count";
    "smp.netisr_queued", "count"; "smp.netisr_drops", "count"; "smp.spin_contentions", "count";
    "event.kq_posted_per_op", "count"; "event.kq_coalesced_ratio", "ratio";
    "event.wheel_arms_per_op", "count"; "event.wheel_cascades", "count";
    "event.tick_visits", "count";
    "asyncio.reactor_visits_per_op", "count"; "asyncio.reactor_spurious_ratio", "ratio";
    "httpd.server_ns_per_req", "vns"; "httpd.reused_ratio", "ratio";
    "httpd.pipelined_ratio", "ratio"; "httpd.peak_active", "count";
    "httpd.protocol_errors", "count"; "httpd.shed", "count";
    "netbsd_fs.bufcache_hit_ratio", "ratio"; "netbsd_fs.blkio_reads_per_req", "count";
    "netbsd_fs.blkio_ns_per_read", "vns"; "netbsd_fs.lookup_ns", "vns";
    "netbsd_fs.sendfile_ratio", "ratio"; "netbsd_fs.copied_bytes_per_req", "bytes";
    "loadgen.lag_us_p99", "vus"; "loadgen.outstanding_end", "count";
    "sim.host_s", "s"; "sim.minor_words_per_event", "words"; "sim.major_collections", "count";
    "sim.trace_overhead_ratio", "ratio";
    "ledger.unattributed_ns", "vns"; "ledger.machine_share", "ratio"; "ledger.com_share", "ratio";
    "ledger.linux_dev_share", "ratio"; "ledger.socket_share", "ratio"; "ledger.fs_share", "ratio";
    "ledger.blkio_share", "ratio" ]

(* ---- driver ---- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let json_metrics pairs =
  String.concat ", "
    (List.map (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u) pairs)

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let trace_out = ref None in
  let rec parse = function
    | [] -> ()
    | flag :: v :: rest -> (
        let int () = match int_of_string_opt v with Some n -> n | None -> usage () in
        (match flag with
        | "--workload" -> if List.mem_assoc v workloads then workload := Some v else usage ()
        | "--seed" -> seed := Some (int ())
        | "--seconds" -> seconds := Some (int ())
        | "--trace" -> (match v with "0" -> trace := Some false | "1" -> trace := Some true | _ -> usage ())
        | "--trace-out" -> trace_out := Some v
        | _ -> usage ());
        parse rest)
    | [ _ ] -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload, seed, seconds, traced =
    match !workload, !seed, !seconds, !trace with
    | Some w, Some s, Some t, Some tr when t > 0 -> w, s, t, tr
    | _ -> usage ()
  in
  let run = List.assoc workload workloads in
  let one () =
    rep := fresh_rep ();
    let o = run ~seed in
    o, !rep
  in
  let start = host_ns () in
  let budget = (if traced then seconds / 2 else seconds) * 1_000_000_000 in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let result =
    try
      let reps = ref [ one () ] in
      while host_ns () - start < budget || List.length !reps < (if traced then 1 else 2) do
        reps := !reps @ [ one () ]
      done;
      let reps = !reps in
      let o1, r1 = List.hd reps in
      let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
      (* Determinism: every repetition reproduces the first exactly. *)
      let counters (r : rep) = List.map (fun (n, x) -> n, x.counters) r.cells in
      List.iteri
        (fun i (o, r) ->
          if o.e2e <> o1.e2e || o.layer <> o1.layer then
            problem "repetition %d: virtual-time metrics differ from repetition 1" (i + 1);
          if counters r <> counters r1 then
            problem "repetition %d: cost counters differ from repetition 1" (i + 1);
          if r.minor_words <> r1.minor_words then
            problem "repetition %d: allocated %.0f words, repetition 1 %.0f" (i + 1)
              r.minor_words r1.minor_words)
        reps;
      let med get = median (List.map (fun (_, r) -> get r) reps) in
      let host_s = med (fun r -> f r.measure_ns /. 1e9) in
      let layer_extra =
        [ "sim.host_s", host_s;
          "machine.host_ns_per_event", host_s *. 1e9 /. f r1.events;
          "sim.minor_words_per_event", r1.minor_words /. f r1.events;
          "sim.major_collections", f major ]
      in
      let o, layer =
        if not traced then o1, []
        else begin
          (match !trace_out with
          | Some file ->
              let oc = open_out file in
              output_string oc "{\"traceEvents\":[\n";
              chrome := Some (oc, ref true)
          | None -> ());
          Pb_trace.on := true;
          let ot, rt =
            Fun.protect ~finally:(fun () -> Pb_trace.on := false) (fun () -> one ())
          in
          (match !chrome with
          | Some (oc, _) ->
              output_string oc "\n]}\n";
              close_out oc;
              chrome := None
          | None -> ());
          (* Tracing is free in virtual time. *)
          if ot.e2e <> o1.e2e then problem "traced run: virtual-time metrics differ from untraced";
          if counters rt <> counters r1 then problem "traced run: cost counters differ from untraced";
          List.iter
            (fun (name, (t : traced)) ->
              Array.iteri
                (fun mi cpus ->
                  Array.iteri
                    (fun c layers ->
                      Printf.printf "ledger %s %s cpu%d:" name t.machines.(mi) c;
                      Array.iteri
                        (fun l v -> if v > 0 || l = Pb_trace.l_unattributed then
                            Printf.printf " %s=%d" Pb_trace.layers.(l) v)
                        layers;
                      print_newline ())
                    cpus)
                t.ledger)
            (List.rev rt.traces);
          let overhead = (f rt.measure_ns /. 1e9 /. host_s) -. 1.0 in
          ot, ("sim.trace_overhead_ratio", overhead) :: layer_extra @ ot.layer
        end
      in
      List.iter (fun (g, ok) -> if not ok then problem "guard %s tripped" g) o.guards;
      if o.mismatches > 0 then problem "%d responses differ from the served bytes" o.mismatches;
      if o.failed > 0 then problem "%d of %d operations failed" o.failed o.attempted;
      if o.samples < 1000 then problem "only %d latency samples; p99 needs 1000" o.samples;
      Printf.printf "workload %s seed %d: %d repetitions, %d latency samples, %d/%d failed\n"
        workload seed (List.length reps) o.samples o.failed o.attempted;
      let e2e =
        o.e2e
        @ [ "setup_s", med (fun r -> f r.setup_ns /. 1e9);
            "alloc_mwords", r1.minor_words /. 1e6;
            "peak_heap_mb", f ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 ]
      in
      let metrics =
        if traced then
          List.map (fun (n, u) -> n, u, Option.value (List.assoc_opt n layer) ~default:0.0) per_layer
        else List.map (fun (n, u) -> n, u, List.assoc n e2e) end_to_end
      in
      List.iter (fun (n, u, v) -> Printf.printf "%-34s %14.4f %s\n" n v u) metrics;
      Some (o, metrics)
    with
    | Check_failed msg ->
        problem "%s" msg;
        None
    | e ->
        problem "%s" (Printexc.to_string e);
        None
  in
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) (List.rev !problems);
  match result with
  | None -> exit 1
  | Some (o, metrics) ->
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
        (!problems = []) o.attempted o.failed (json_metrics metrics);
      if !problems <> [] then exit 1
