(* The two-PC network experiment runner shared by the Table 1/2 and VM
   benches: sets up each side of the testbed in any of the three system
   configurations (they interoperate on the wire), runs a ttcp- or
   rtcp-style workload in virtual time, and reports the paper's numbers. *)

open Testbed

type transfer_result = {
  mbit_sender : float; (* bandwidth from the sender's clock, ttcp-style *)
  mbit_e2e : float;
  copies_per_kpkt : int;
  crossings_per_kpkt : int;
  packets : int;
  sg_xmits : int;          (* frames the NIC gathered from an iovec *)
  linearized_xmits : int;  (* frames flattened at the glue (the copy) *)
  checksummed_bytes : int;
  wire_per_xmit : float;   (* sender's wire frames per driver transmit *)
}

(* ttcp: [sender] pushes blocks x blocksize to [receiver].  [sg] turns on
   the scatter-gather transmit path at the mbuf->skbuff glue (default off:
   the paper's measured configuration flattens chains there). *)
let transfer ?(sg = false) ~sender ~receiver ~blocks ~blocksize () =
  Cost.with_config (fun c -> c.Cost.sg_tx <- sg) @@ fun () ->
  let tb = fresh () in
  let total = blocks * blocksize in
  let serve, _, _ = setup receiver tb.Clientos.host_b ~addr:server_ip in
  let _, connect, _ = setup sender tb.Clientos.host_a ~addr:client_ip in
  let send_ns = ref 0 and recv_done = ref 0 in
  serve ~port:5001 (fun s ->
      let buf = Bytes.create 16384 in
      let rec loop () =
        match s.recv buf 16384 with
        | 0 ->
            recv_done := Machine.now tb.Clientos.host_b.Clientos.machine;
            ignore (s.close ())
        | _ -> loop ()
      in
      loop ());
  connect ~dst:server_ip ~port:5001 (fun s ->
      let block = Bytes.make blocksize 'T' in
      let t0 = Machine.now tb.Clientos.host_a.Clientos.machine in
      for _ = 1 to blocks do
        if s.send block blocksize <> blocksize then failwith "short send"
      done;
      send_ns := Machine.now tb.Clientos.host_a.Clientos.machine - t0;
      ignore (s.close ()));
  Cost.reset_counters ();
  Clientos.run tb ~until:(fun () -> !recv_done > 0);
  let packets = Wire.frames_carried tb.Clientos.wire in
  let nic = tb.Clientos.host_a.Clientos.nic in
  { mbit_sender = float_of_int total *. 8e3 /. float_of_int !send_ns;
    mbit_e2e = float_of_int total *. 8e3 /. float_of_int !recv_done;
    copies_per_kpkt = Cost.counters.Cost.copies * 1000 / max 1 packets;
    crossings_per_kpkt = Cost.counters.Cost.glue_crossings * 1000 / max 1 packets;
    packets;
    sg_xmits = Cost.counters.Cost.sg_xmits;
    linearized_xmits = Cost.counters.Cost.linearized_xmits;
    checksummed_bytes = Cost.counters.Cost.checksummed_bytes;
    wire_per_xmit = float_of_int (Nic.tx_count nic) /. float_of_int (max 1 (Nic.xmit_count nic)) }

(* rtcp: 1-byte round trips, both sides in [config], keeping the whole
   per-trip distribution and the receive fast-path counters.  [fastpath]
   turns on header prediction and batched RX at once — default off, the
   paper's measured configuration; the hashed PCB demux is always on.
   The per-trip [Machine.now] reads charge nothing, so the mean is the
   loop's total time over [trips]: Table 2's number. *)
type rtt_dist = {
  rtt_mean_us : float;
  rtt_p50_us : float;
  rtt_p95_us : float;
  rtt_p99_us : float;
  rtt_fastpath_hits : int;
  rtt_fastpath_fallbacks : int;
  rtt_pcb_cache_hits : int;
  rtt_pcb_cache_misses : int;
  rtt_rx_polls : int;        (* vectored bursts through the glue *)
  rtt_rx_frames : int;       (* frames those bursts carried *)
}

let dist ?(fastpath = false) config ~trips =
  Cost.with_config (fun c ->
      c.Cost.tcp_fastpath <- fastpath;
      c.Cost.rx_batch <- (if fastpath then 8 else 1))
  @@ fun () ->
  let tb = fresh () in
  let serve, _, _ = setup config tb.Clientos.host_b ~addr:server_ip in
  let _, connect, _ = setup config tb.Clientos.host_a ~addr:client_ip in
  let samples = Array.make (max 1 trips) 0 in
  let finished = ref false in
  serve ~port:5002 (fun s ->
      let buf = Bytes.create 1 in
      let rec loop () =
        match s.recv buf 1 with
        | 0 -> ignore (s.close ())
        | _ ->
            ignore (s.send buf 1);
            loop ()
      in
      loop ());
  connect ~dst:server_ip ~port:5002 (fun s ->
      let one = Bytes.make 1 'R' in
      let buf = Bytes.create 1 in
      ignore (s.send one 1);
      ignore (s.recv buf 1);
      let machine = tb.Clientos.host_a.Clientos.machine in
      for i = 0 to trips - 1 do
        let t0 = Machine.now machine in
        ignore (s.send one 1);
        ignore (s.recv buf 1);
        samples.(i) <- Machine.now machine - t0
      done;
      finished := true;
      ignore (s.close ()));
  Clientos.run tb ~until:(fun () -> !finished);
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let pct p = float_of_int sorted.(min (n - 1) ((n - 1) * p / 100)) /. 1e3 in
  { rtt_mean_us =
      float_of_int (Array.fold_left ( + ) 0 samples)
      /. float_of_int (max 1 trips) /. 1e3;
    rtt_p50_us = pct 50;
    rtt_p95_us = pct 95;
    rtt_p99_us = pct 99;
    rtt_fastpath_hits = Cost.counters.Cost.fastpath_hits;
    rtt_fastpath_fallbacks = Cost.counters.Cost.fastpath_fallbacks;
    rtt_pcb_cache_hits = Cost.counters.Cost.pcb_cache_hits;
    rtt_pcb_cache_misses = Cost.counters.Cost.pcb_cache_misses;
    rtt_rx_polls = Cost.counters.Cost.rx_polls;
    rtt_rx_frames = Cost.counters.Cost.rx_batched_frames }

(* Section 6.2.6: throughput measured from inside the bytecode VM on the
   OSKit configuration.  The VM program loops sys_recv (or sys_send); the
   other side is a native FreeBSD peer. *)
let vm_throughput ~direction ~bytes =
  let tb = fresh () in
  let vm_host = tb.Clientos.host_a and peer = tb.Clientos.host_b in
  let env, _ = Clientos.oskit_host vm_host ~ip:client_ip ~mask:mask in
  let stack = Clientos.freebsd_host peer ~ip:server_ip ~mask:mask in
  let finished_ns = ref 0 in
  let chunk = 8192 in
  (* VM program: loop { n = sys(recv/send)(heap 8192, 8192); global1 += n;
     if global1 >= global0 halt }.  global0 preloaded with the target. *)
  let sys_no = if direction = `Receive then Vm.sys_recv else Vm.sys_send in
  let program =
    [| Vm.Push bytes; Vm.Store 0; Vm.Push 0; Vm.Store 1;
       (* loop: *)
       Vm.Push 8192; Vm.Push chunk; Vm.Sys sys_no;
       Vm.Dup; Vm.Jz 20 (* eof -> halt *);
       Vm.Load 1; Vm.Add; Vm.Store 1;
       Vm.Load 1; Vm.Load 0; Vm.Lt; Vm.Jz 20 (* done -> halt *);
       Vm.Jmp 4;
       Vm.Halt; Vm.Halt; Vm.Halt;
       (* 20: *)
       Vm.Halt |]
  in
  (* Peer: FreeBSD-native source or sink. *)
  Clientos.spawn peer ~name:"peer" (fun () ->
      let ls = Bsd_socket.tcp_socket stack in
      ok (Bsd_socket.so_bind ls ~port:5003);
      ok (Bsd_socket.so_listen ls ~backlog:1);
      let conn = ok (Bsd_socket.so_accept ls) in
      let buf = Bytes.make chunk 'V' in
      (match direction with
      | `Receive ->
          (* Peer sends [bytes] to the VM. *)
          let rec push sent =
            if sent < bytes then begin
              let n = ok (Bsd_socket.so_send conn ~buf ~pos:0 ~len:(min chunk (bytes - sent))) in
              push (sent + n)
            end
          in
          push 0;
          ignore (Bsd_socket.so_close conn)
      | `Send ->
          let rec sink () =
            match ok (Bsd_socket.so_recv conn ~buf ~pos:0 ~len:chunk) with
            | 0 -> ()
            | _ -> sink ()
          in
          sink ()));
  Clientos.spawn vm_host ~name:"vm" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let fd = ok (Posix.socket env Io_if.Sock_stream) in
      ok (Posix.connect env fd { Io_if.sin_addr = server_ip; sin_port = 5003 });
      let bindings =
        { Vm.putc = (fun _ -> ());
          send =
            (fun b ~pos ~len ->
              match Posix.send env fd b ~pos ~len with
              | Ok n ->
                  Cost.charge_copy n (* the VM-heap copy *);
                  n
              | Error _ -> 0);
          recv =
            (fun b ~pos ~len ->
              match Posix.recv env fd b ~pos ~len with
              | Ok n ->
                  Cost.charge_copy n;
                  n
              | Error _ -> 0);
          time_ns = (fun () -> Machine.now vm_host.Clientos.machine) }
      in
      let vm = Vm.create ~heap_size:(64 * 1024) ~bindings program in
      let t0 = Machine.now vm_host.Clientos.machine in
      ignore (Vm.run ~fuel:200_000_000 vm);
      (match direction with `Send -> ignore (Posix.shutdown env fd) | `Receive -> ());
      finished_ns := Machine.now vm_host.Clientos.machine - t0);
  Clientos.run tb ~until:(fun () -> !finished_ns > 0);
  float_of_int bytes *. 8e3 /. float_of_int !finished_ns

(* ---- chaos mode: ttcp under injected faults ---- *)

(* Position-dependent payload so delivery is provably byte-exact: any
   duplicated, reordered, or corrupted byte that leaks through TCP lands at
   the wrong position and is caught at the receiver. *)
let pattern pos = (pos * 131) land 0xff

(* Receive a [pattern] stream on [s] to EOF, counting every byte out of
   place; [at_eof] runs just before the close. *)
let sink s ~received ~mismatches ~at_eof =
  let buf = Bytes.create 16384 in
  let rec loop () =
    match s.recv buf 16384 with
    | 0 ->
        at_eof ();
        ignore (s.close ())
    | n ->
        for i = 0 to n - 1 do
          if Char.code (Bytes.get buf i) <> pattern (!received + i) then incr mismatches
        done;
        received := !received + n;
        loop ()
  in
  loop ()

(* Send [bytes] of the [pattern] stream on [s] in [blocksize] writes. *)
let source s ~blocksize ~bytes =
  let block = Bytes.create blocksize in
  let rec push sent =
    if sent < bytes then begin
      let n = min blocksize (bytes - sent) in
      for i = 0 to n - 1 do
        Bytes.set block i (Char.chr (pattern (sent + i)))
      done;
      if s.send block n <> n then failwith "short send";
      push (sent + n)
    end
  in
  push 0

type chaos_result = {
  goodput_mbit : float;  (* end-to-end, from the receiver's clock *)
  chaos_rexmits : int;   (* sender-stack data retransmissions *)
  wire_offered : int;
  wire_dropped : int;    (* frames netem discarded in transit *)
  byte_exact : bool;     (* every payload byte correct and accounted for *)
  rcv_badsum : int;      (* receiver-stack TCP checksum drops *)
  rcv_dups : int;        (* receiver-stack duplicate-segment drops *)
}

let chaos_transfer ?(seed = 42) ?(loss = 0.01) ?(corrupt = 0.0)
    ?(corrupt_min_len = 0) ?(duplicate = 0.0) ?(sg = false) ~sender ~receiver
    ~blocks ~blocksize () =
  Cost.with_config (fun c -> c.Cost.sg_tx <- sg) @@ fun () ->
  let netem =
    Netem.create ~seed
      ~policy:{ Netem.default_policy with loss; corrupt; corrupt_min_len; duplicate }
      ()
  in
  let tb = fresh ~netem () in
  let total = blocks * blocksize in
  let serve, _, rstats = setup receiver tb.Clientos.host_b ~addr:server_ip in
  let _, connect, sstats = setup sender tb.Clientos.host_a ~addr:client_ip in
  let recv_done = ref 0 and mismatches = ref 0 and received = ref 0 in
  serve ~port:5004 (fun s ->
      sink s ~received ~mismatches ~at_eof:(fun () ->
          recv_done := Machine.now tb.Clientos.host_b.Clientos.machine));
  connect ~dst:server_ip ~port:5004 (fun s ->
      source s ~blocksize ~bytes:total;
      ignore (s.close ()));
  Clientos.run tb ~until:(fun () -> !recv_done > 0);
  if !recv_done = 0 then failwith "chaos: transfer did not complete";
  { goodput_mbit = float_of_int total *. 8e3 /. float_of_int !recv_done;
    chaos_rexmits = sstats.rexmits ();
    wire_offered = Wire.frames_carried tb.Clientos.wire;
    wire_dropped = Wire.frames_dropped tb.Clientos.wire;
    byte_exact = (!mismatches = 0 && !received = total);
    rcv_badsum = rstats.tcp_badsum ();
    rcv_dups = rstats.dups () }

(* ---- long fat pipes: ttcp over a stretched wire ---- *)

(* Socket-buffer discipline for a longfat run.  [Lf_default] is the seed
   configuration (16-bit windows, fixed buffers); [Lf_manual] negotiates
   wscale and hand-sizes both ends' buffers to 2x the path BDP — the
   operator's recipe; [Lf_autotune] negotiates wscale and lets the stacks
   grow their own buffers (Cost.config.tcp_autotune). *)
type bufmode = Lf_default | Lf_manual | Lf_autotune

type longfat_result = {
  lf_mbit : float;          (* end-to-end goodput, receiver's clock *)
  lf_byte_exact : bool;
  lf_rexmits : int;
  lf_rcv_buf : int;         (* receiver buffer at the end of the run *)
  lf_persist_probes : int;  (* Linux only; 0 elsewhere *)
}

(* A longfat run between two hosts in [config], Freebsd or Linux: the
   OSKit configuration's POSIX sockets expose no buffer size to hand-size,
   so it is rejected up front. *)
let longfat_transfer ?(seed = 42) ?(loss = 0.0) ~config ~rtt_ns ~bufmode ~bytes
    () =
  if config = Oskit then invalid_arg "Netbench.longfat_transfer: Freebsd or Linux only";
  Cost.with_config (fun c ->
      match bufmode with
      | Lf_default -> ()
      | Lf_manual -> c.Cost.tcp_wscale <- true
      | Lf_autotune ->
          c.Cost.tcp_wscale <- true;
          c.Cost.tcp_autotune <- true)
  @@ fun () ->
  let netem =
    if loss > 0.0 then Some (Netem.create ~seed ~policy:{ Netem.default_policy with loss } ())
    else None
  in
  let tb = fresh ~latency_ns:(max 1_000 (rtt_ns / 2)) ?netem () in
  (* BDP at the wire's 100 Mbps: bytes = rate/8 * rtt.  Manual mode sizes
     to 2x BDP (headroom for ACK clocking), floored at the seed default. *)
  let bdp = rtt_ns / 80 in
  let manual =
    match bufmode with
    | Lf_manual -> Some (min Cost.config.Cost.tcp_sockbuf_max (max (64 * 1024) (2 * bdp)))
    | _ -> None
  in
  let recv_done = ref 0 and mismatches = ref 0 and received = ref 0 in
  let final_rcv_buf = ref 0 and persist_probes = ref 0 and rexmits = ref 0 in
  let serve, _, rstats = setup config tb.Clientos.host_b ~addr:server_ip in
  let _, connect, sstats = setup config tb.Clientos.host_a ~addr:client_ip in
  serve ?rcvbuf:manual ~port:5005 (fun s ->
      sink s ~received ~mismatches ~at_eof:(fun () ->
          final_rcv_buf := s.rcv_buf ();
          recv_done := Machine.now tb.Clientos.host_b.Clientos.machine));
  connect ?sndbuf:manual ~dst:server_ip ~port:5005 (fun s ->
      source s ~blocksize:16384 ~bytes;
      rexmits := sstats.rexmits ();
      persist_probes := sstats.persist_probes () + rstats.persist_probes ();
      ignore (s.close ()));
  Clientos.run tb ~until:(fun () -> !recv_done > 0);
  if !recv_done = 0 then failwith "longfat: transfer did not complete";
  { lf_mbit = float_of_int bytes *. 8e3 /. float_of_int !recv_done;
    lf_byte_exact = (!mismatches = 0 && !received = bytes);
    lf_rexmits = !rexmits;
    lf_rcv_buf = !final_rcv_buf;
    lf_persist_probes = !persist_probes }

(* Forced zero window on the Linux stack: the receiver accepts, then sits
   on a full receive queue for [stall_ns] of virtual time before draining.
   The sender exhausts the advertised window and parks in [send]; only the
   persist timer talks during the stall.  Returns (persist probes sent,
   byte-exact). *)
let zero_window_run ?(stall_ns = 3_000_000_000) ?(bytes = 256 * 1024) () =
  let tb = fresh () in
  let serve, _, _ = setup Linux tb.Clientos.host_b ~addr:server_ip in
  let _, connect, sstats = setup Linux tb.Clientos.host_a ~addr:client_ip in
  let recv_done = ref 0 and mismatches = ref 0 and received = ref 0 in
  serve ~port:5006 (fun s ->
      Kclock.sleep_ns stall_ns;
      sink s ~received ~mismatches ~at_eof:(fun () ->
          recv_done := Machine.now tb.Clientos.host_b.Clientos.machine));
  connect ~dst:server_ip ~port:5006 (fun s ->
      source s ~blocksize:16384 ~bytes;
      ignore (s.close ()));
  Clientos.run tb ~until:(fun () -> !recv_done > 0);
  (sstats.persist_probes (), !mismatches = 0 && !received = bytes)
