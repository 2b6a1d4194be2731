(* httpbench — the asyncio concurrency experiment: one HTTP/1.0 static-file
   server component (lib/httpd) run in its two serving shapes against a
   swarm of simultaneous clients, on either protocol stack.

   The server speaks to its sockets only through the COM interfaces
   (oskit_socket + oskit_asyncio), so the same component binary serves
   from the FreeBSD stack (Freebsd_glue.socket_com) or the Linux stack
   (Linux_sock_com.socket_com) — the separability argument of Section 4.4,
   extended to the readiness path.

   The comparison is at EQUAL MEMORY: a RAM budget is divided by what a
   connection costs in each shape (a parked handler thread owns a 32KB
   kernel stack; a reactor connection owns a 2KB state record), which caps
   thread-per-connection far below the event-driven server.  Beyond its
   cap the threaded server's accept queue backs up and the stack's listen
   backlog drops SYNs — the drops surface in the per-stack
   [listen_overflow] counter and in the clients' p99 (a dropped SYN costs
   a retransmit timeout). *)

(* ---- the served file: position-dependent bytes so delivery is provably
   byte-exact end to end (same discipline as the chaos bench) ---- *)

let file_bytes = 1024
let body = String.init file_bytes (fun i -> Char.chr ((i * 131) land 0xff))

(* ---- the equal-memory budget ---- *)

let ram_budget = 512 * 1024
let max_threads = ram_budget / Httpd.thread_stack_bytes (* 16 *)
let max_conns = ram_budget / Httpd.conn_state_bytes (* 256 *)
let backlog = 128

(* What a thread costs to create (stack allocation + context setup),
   charged to the server machine per spawned handler.  Zero by default so
   the calibrated Table 1/2 runs are untouched; the concurrency bench is
   exactly the workload where it matters. *)
let spawn_cycles = 20_000

type result = {
  r_config : Testbed.config;
  r_mode : Testbed.mode;
  r_clients : int;
  r_requests : int;
  r_duration_ms : float;
  r_rps : float;
  r_p50_us : float;
  r_p99_us : float;
  r_peak_active : int; (* high-water concurrent connections in the server *)
  r_accepted : int;
  r_responses : int;
  r_shed : int;
  r_listen_overflow : int; (* stack-level accept-queue SYN drops *)
  r_protocol_errors : int;
  r_mismatches : int; (* client-side byte-exactness failures *)
  r_reactor_sleeps : int;
  r_reactor_spurious : int;
}

(* Clients are deliberately slow: the request goes out in two pieces with
   [think_ns] between them, the way a WAN client's request straggles in
   over a long RTT.  Every connection is therefore open for at least
   [think_ns] of world time, which is what piles connections up at the
   server — the regime where thread-per-connection burns a parked stack
   per connection and the reactor burns a 2KB record. *)
let think_ns = 5_000_000

(* One run: [clients] FreeBSD-native blocking clients on host_a each issue
   [reqs_per_client] sequential GETs against the server on host_b.  All
   clients start inside a ~200ns-per-client window, so the connect burst
   is near-simultaneous — the regime the reactor exists for. *)
let run ?(reqs_per_client = 2) ~config ~mode ~clients () =
  Cost.with_config (fun c -> c.Cost.thread_spawn_cycles <- spawn_cycles) @@ fun () ->
  let tb = Testbed.fresh () in
  let server = tb.Clientos.host_b and chost = tb.Clientos.host_a in
  let root = Testbed.make_root [ "index.html", body ] in
  let sock, listen_overflow = Testbed.server_sock config server in
  let cstack = Clientos.freebsd_host chost ~ip:Testbed.client_ip ~mask:Testbed.mask in
  let done_clients = ref 0 in
  let all_done () = !done_clients >= clients in
  let reactor = Reactor.create () in
  let server_stats =
    Testbed.serve_httpd ~max_conns ~max_threads ~mode ~backlog ~reactor ~until:all_done server
      sock root
  in
  let samples = ref [] in
  let mismatches = ref 0 in
  let t_start = ref max_int and t_end = ref 0 in
  let do_request ~record () =
    let t0 = Machine.now chost.Clientos.machine in
    let s = Bsd_socket.tcp_socket cstack in
    (match Bsd_socket.so_connect s ~dst:Testbed.server_ip ~dport:80 with
    | Error _ -> incr mismatches
    | Ok () ->
        (* The slow-client dribble: request line now, terminator later. *)
        Testbed.send_string s "GET /index.html HTTP/1.0\r\n";
        Kclock.sleep_ns think_ns;
        Testbed.send_string s "\r\n";
        if not (Testbed.read_200 s ~expect:body) then incr mismatches);
    ignore (Bsd_socket.so_close s);
    let t1 = Machine.now chost.Clientos.machine in
    if record then begin
      if t0 < !t_start then t_start := t0;
      if t1 > !t_end then t_end := t1;
      samples := (t1 - t0) :: !samples
    end
  in
  (* One unmeasured request first: it resolves ARP on both machines, so
     the measured burst is a TCP burst and not a fight over the bounded
     ARP waiter queue (PR 2's drop-head bound would serialize it). *)
  let warm = ref false in
  Clientos.spawn chost ~name:"warmup" (fun () ->
      Kclock.sleep_ns 2_000_000;
      do_request ~record:false ();
      warm := true);
  for i = 0 to clients - 1 do
    Clientos.spawn chost ~name:(Printf.sprintf "c%d" i) (fun () ->
        Kclock.sleep_ns (6_000_000 + (i * 200));
        while not !warm do
          Kclock.sleep_ns 200_000
        done;
        for _ = 1 to reqs_per_client do
          do_request ~record:true ()
        done;
        incr done_clients)
  done;
  Clientos.run tb ~until:all_done;
  let st = server_stats () in
  let pct = Testbed.percentile !samples in
  let duration = max 1 (!t_end - !t_start) in
  let total = clients * reqs_per_client in
  let rstats = Reactor.stats reactor in
  { r_config = config;
    r_mode = mode;
    r_clients = clients;
    r_requests = total;
    r_duration_ms = float_of_int duration /. 1e6;
    r_rps = float_of_int total *. 1e9 /. float_of_int duration;
    r_p50_us = pct 50;
    r_p99_us = pct 99;
    r_peak_active = st.Httpd.peak_active;
    (* minus the unmeasured warmup request *)
    r_accepted = st.Httpd.accepted - 1;
    r_responses = st.Httpd.responses - 1;
    r_shed = st.Httpd.shed;
    r_listen_overflow = listen_overflow ();
    r_protocol_errors = st.Httpd.protocol_errors;
    r_mismatches = !mismatches;
    r_reactor_sleeps = rstats.Reactor.sleeps;
    r_reactor_spurious = rstats.Reactor.spurious }
