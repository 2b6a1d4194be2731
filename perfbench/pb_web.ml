(* The web workload: an open loop of independent users against the
   8-CPU native FreeBSD server (RSS, the sharded reactor httpd, the modern
   knobs).  Each seeded Poisson arrival opens a new connection, sends one
   HTTP/1.0 GET for one of a few 1 KB files that fit in the buffer cache,
   reads the response and closes.  capacity_rps is found by bisection
   over the offered rate; p50_us and p99_us are measured at one fixed
   rate (Pb_knobs). *)

open Pb_sim

let files = 8
let file_bytes = 1024
let server_ip = ip "10.0.0.2"
let client_ip = ip "10.0.0.1"
let port = 80

(* Twice the server's CPUs, so the users never set the rate. *)
let client_cpus = 16

(* Bisection: a fixed bracket, a fixed number of probes, a fixed number
   of arrivals per probe.  The fixed rate runs as [fixed_cells]
   independent testbeds, each with its own arrival stream, whose samples
   are pooled: one long cell would pile up TIME_WAIT state and host
   memory. *)
let rate_lo = 4_000.0
let rate_hi = 40_000.0
let probes = 7
let probe_arrivals = 6_000
let fixed_cells = 3
let fixed_arrivals = 10_000

(* How long after the last arrival stragglers may still finish. *)
let drain_ns = 1_000_000_000

type cell = {
  rate : float;
  lat_ns : int array;  (* completed requests, from due time to last body byte *)
  lag_ns : int array;  (* generator lateness per started request *)
  attempted : int;
  failed : int;  (* refused or reset connect, timeout, short or wrong response *)
  mismatches : int;  (* responses that arrived but differ from the file *)
  outstanding_end : int;  (* requests still open when the last one was due *)
  window_ns : int;  (* first due to last completion *)
  server_busy : float;  (* max over the server's CPUs *)
  server_busy_cpu : int array;  (* per CPU, in the window *)
  client_busy : float;
  wire_util : float;
  frames : int;
  nic_rx_dropped : int;
  events : int;
  httpd : Httpd.stats;
  reactor : Reactor.stats;
  netstat : (string * int) list;
}

let zero_reactor = { Reactor.polls = 0; dispatches = 0; sleeps = 0; spurious = 0; visits = 0 }

let sum_reactor (a : Reactor.stats) (b : Reactor.stats) =
  { Reactor.polls = a.Reactor.polls + b.Reactor.polls;
    dispatches = a.Reactor.dispatches + b.Reactor.dispatches;
    sleeps = a.Reactor.sleeps + b.Reactor.sleeps;
    spurious = a.Reactor.spurious + b.Reactor.spurious;
    visits = a.Reactor.visits + b.Reactor.visits }

let run_cell ~name ~rng ~rate ~arrivals =
  Pb_knobs.web ();
  let tb = setup (testbed ~cpus:(client_cpus, Cost.config.Cost.ncpus)) in
  let server = tb.Clientos.host_b and chost = tb.Clientos.host_a in
  let ncpus = Machine.ncpus server.Clientos.machine in
  let client_ncpus = Machine.ncpus chost.Clientos.machine in
  let root, bodies, stack, cstack =
    setup (fun () ->
        let root, bodies = Pb_http.make_root ~disk_bytes:(1 lsl 20) (Array.make files file_bytes) in
        let stack = Clientos.freebsd_host server ~ip:server_ip ~mask in
        let cstack = Clientos.freebsd_host chost ~ip:client_ip ~mask in
        root, bodies, stack, cstack)
  in
  let sock = Pb_http.wrap_socket (Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack)) in
  let finished = ref false in
  let reactors = Array.init ncpus (fun _ -> Reactor.create ()) in
  let stats = ref None in
  (* A connection's home CPU is its RSS flow hash, as NIC steering uses. *)
  let home (peer : Io_if.sockaddr) =
    Rss.cpu_of_flow ~ncpus ~proto:6 ~addr_a:server_ip ~port_a:port
      ~addr_b:peer.Io_if.sin_addr ~port_b:peer.Io_if.sin_port
  in
  Clientos.spawn server ~cpu:0 ~name:"httpd-accept" (fun () ->
      ok "bind" (sock.Io_if.so_bind { Io_if.sin_addr = server_ip; sin_port = port });
      ok "listen" (sock.Io_if.so_listen ~backlog:Pb_knobs.web_backlog);
      stats := Some (Httpd.serve_reactor_sharded ~reactors ~home ~root ~sock ());
      Reactor.run reactors.(0) ~until:(fun () -> !finished));
  for c = 1 to ncpus - 1 do
    Clientos.spawn server ~cpu:c ~name:(Printf.sprintf "httpd-cpu%d" c) (fun () ->
        Reactor.run reactors.(c) ~until:(fun () -> !finished))
  done;
  let cm = chost.Clientos.machine in
  (* One request: returns the time its last body byte arrived. *)
  let request fi =
    let s, send, recv = Pb_http.client_socket cstack in
    let r =
      match Bsd_socket.so_connect s ~dst:server_ip ~dport:port with
      | Error e -> Error ("connect: " ^ Error.to_string e)
      | Ok () ->
          if not (send (Printf.sprintf "GET /%s HTTP/1.0\r\n\r\n" (Pb_http.file_name fi))) then
            Error "send"
          else
            let rd = Pb_http.reader ~recv ~now:(fun () -> Machine.now cm) in
            let r = Pb_http.read_response rd ~expect:bodies.(fi) in
            (* HTTP/1.0: the server closes; drain to end of stream. *)
            if Result.is_ok r then
              while recv rd.Pb_http.chunk 16384 > 0 do () done;
            r
    in
    ignore (Bsd_socket.so_close s);
    r
  in
  (* Seeded inputs: inter-arrival gaps and file choices. *)
  let gaps =
    Array.init arrivals (fun _ -> -.log (1.0 -. Random.State.float rng 1.0) /. rate *. 1e9)
  in
  let choice = Array.init arrivals (fun _ -> Random.State.int rng files) in
  let warm = ref false in
  let due = Array.make arrivals 0 in
  let done_at = Array.make arrivals (-1) in
  let lag = Array.make arrivals (-1) in
  let mismatches = ref 0 and completed = ref 0 in
  let base_s = ref [||] and base_c = ref [||] in
  let frames0 = ref 0 and bytes0 = ref 0 in
  Clientos.spawn chost ~cpu:0 ~name:"warmup" (fun () ->
      Kclock.sleep_ns 2_000_000;
      (* Resolve ARP and bring every file into the buffer cache. *)
      for fi = 0 to files - 1 do
        match request fi with Ok _ -> () | Error e -> fail "%s: warm-up: %s" name e
      done;
      let t0 = Machine.now cm + 1_000_000 in
      let t = ref (float_of_int t0) in
      for i = 0 to arrivals - 1 do
        t := !t +. gaps.(i);
        due.(i) <- int_of_float !t;
        let cpu = i mod client_ncpus in
        ignore
          (Machine.at_on cm ~cpu due.(i) (fun () ->
               Clientos.spawn chost ~cpu ~name:"user" (fun () ->
                   lag.(i) <- Machine.now cm - due.(i);
                   let hstart = host_ns () in
                   (match request choice.(i) with
                   | Ok t -> done_at.(i) <- t
                   | Error e -> if e = Pb_http.wrong then incr mismatches);
                   incr completed;
                   if !Pb_trace.on then
                     Pb_trace.record_wait ~name:"loadgen.req" ~conn:i ~mach:0
                       ~vstart:due.(i) ~vend:(Machine.now cm) ~hstart)))
      done;
      warm := true);
  setup (fun () -> ignore (run_until tb ~until:(fun () -> !warm)));
  base_s := busy_vec server.Clientos.machine;
  base_c := busy_vec cm;
  frames0 := Wire.frames_carried tb.Clientos.wire;
  bytes0 := Wire.bytes_carried tb.Clientos.wire;
  let last_due = due.(arrivals - 1) in
  let deadline = last_due + drain_ns in
  let events =
    measure tb ~until:(fun () ->
        !completed = arrivals || World.now tb.Clientos.world > deadline)
  in
  finished := true;
  let lat = ref [] and lags = ref [] and outstanding = ref 0 and t_end = ref 0 in
  for i = 0 to arrivals - 1 do
    if lag.(i) >= 0 then lags := lag.(i) :: !lags;
    if done_at.(i) >= 0 then begin
      lat := (done_at.(i) - due.(i)) :: !lat;
      t_end := max !t_end done_at.(i)
    end;
    if done_at.(i) < 0 || done_at.(i) > last_due then incr outstanding
  done;
  let window = max 1 (!t_end - due.(0)) in
  let sm = server.Clientos.machine in
  let per_cpu = Array.mapi (fun c b -> Machine.cpu_busy_ns sm ~cpu:c - b) !base_s in
  let wire_bytes = Wire.bytes_carried tb.Clientos.wire - !bytes0 in
  let bsd = stack.Bsd_socket.tcp.Tcp.stats in
  let c =
    { rate;
      lat_ns = Array.of_list !lat;
      lag_ns = Array.of_list !lags;
      attempted = arrivals;
      failed = arrivals - List.length !lat;
      mismatches = !mismatches;
      outstanding_end = !outstanding;
      window_ns = window;
      server_busy = float_of_int (busy_since sm !base_s) /. float_of_int window;
      server_busy_cpu = per_cpu;
      client_busy = float_of_int (busy_since cm !base_c) /. float_of_int window;
      wire_util =
        float_of_int (wire_bytes * 8) *. 1e9 /. float_of_int Pb_knobs.wire_bps
        /. float_of_int window;
      frames = Wire.frames_carried tb.Clientos.wire - !frames0;
      nic_rx_dropped = Nic.rx_dropped server.Clientos.nic + Nic.rx_dropped chost.Clientos.nic;
      events;
      httpd = Option.get !stats;
      reactor = Array.fold_left (fun a r -> sum_reactor a (Reactor.stats r)) zero_reactor reactors;
      netstat =
        [ "rexmits", bsd.Tcp.sndrexmitpack + bsd.Tcp.fastrexmit;
          "listen_overflow", bsd.Tcp.listen_overflow;
          "syncache_added", bsd.Tcp.syncache_added ] }
  in
  finish ~name tb;
  c

(* Whether a probe met the workload's limits: nothing failed, p99 under
   the latency limit, and the backlog at the end of the window bounded by
   what Little's law allows at that latency. *)
let passes (c : cell) =
  c.failed = 0
  && percentile c.lat_ns 0.99 <= Pb_knobs.web_latency_limit_ns
  && float_of_int c.outstanding_end
     <= (c.rate *. float_of_int Pb_knobs.web_latency_limit_ns /. 1e9) +. 8.0

(* Pool the fixed-rate cells: samples and counts add up, shares and
   utilizations take the worst cell. *)
let merge a b =
  let h (x : Httpd.stats) (y : Httpd.stats) =
    { x with
      Httpd.requests = x.Httpd.requests + y.Httpd.requests;
      responses = x.Httpd.responses + y.Httpd.responses;
      protocol_errors = x.Httpd.protocol_errors + y.Httpd.protocol_errors;
      shed = x.Httpd.shed + y.Httpd.shed;
      shed_503 = x.Httpd.shed_503 + y.Httpd.shed_503;
      peak_active = max x.Httpd.peak_active y.Httpd.peak_active;
      reused = x.Httpd.reused + y.Httpd.reused;
      pipelined = x.Httpd.pipelined + y.Httpd.pipelined;
      sendfile_bodies = x.Httpd.sendfile_bodies + y.Httpd.sendfile_bodies;
      body_bytes_copied = x.Httpd.body_bytes_copied + y.Httpd.body_bytes_copied }
  in
  { rate = a.rate;
    lat_ns = Array.append a.lat_ns b.lat_ns;
    lag_ns = Array.append a.lag_ns b.lag_ns;
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    mismatches = a.mismatches + b.mismatches;
    outstanding_end = max a.outstanding_end b.outstanding_end;
    window_ns = a.window_ns + b.window_ns;
    server_busy = max a.server_busy b.server_busy;
    server_busy_cpu = Array.map2 ( + ) a.server_busy_cpu b.server_busy_cpu;
    client_busy = max a.client_busy b.client_busy;
    wire_util = max a.wire_util b.wire_util;
    frames = a.frames + b.frames;
    nic_rx_dropped = a.nic_rx_dropped + b.nic_rx_dropped;
    events = a.events + b.events;
    httpd = h a.httpd b.httpd;
    reactor = sum_reactor a.reactor b.reactor;
    netstat = List.map2 (fun (k, x) (_, y) -> k, x + y) a.netstat b.netstat }

let fixed_names = List.init fixed_cells (Printf.sprintf "fixed%d")

type result = {
  capacity_rps : float;
  probe_cells : cell list;  (* in probing order *)
  fixed : cell;  (* the fixed-rate cells, pooled *)
}

(* Every probe replays the same seeded arrival stream, scaled to its
   rate, so probes differ only in the rate. *)
let run ~seed =
  let rng k = Random.State.make [| seed; 3; k |] in
  let lo = ref rate_lo and hi = ref rate_hi in
  let first = run_cell ~name:"probe0" ~rng:(rng 0) ~rate:rate_lo ~arrivals:probe_arrivals in
  if not (passes first) then fail "web: the bracket's low rate %.0f/s fails its limits" rate_lo;
  let cells = ref [ first ] in
  for k = 1 to probes do
    let rate = sqrt (!lo *. !hi) in
    let c =
      run_cell ~name:(Printf.sprintf "probe%d" k) ~rng:(rng 0) ~rate ~arrivals:probe_arrivals
    in
    cells := c :: !cells;
    if passes c then lo := rate else hi := rate
  done;
  let fixed =
    List.mapi
      (fun k name ->
        run_cell ~name ~rng:(rng (k + 1)) ~rate:Pb_knobs.web_fixed_rate ~arrivals:fixed_arrivals)
      fixed_names
  in
  let fixed = List.fold_left merge (List.hd fixed) (List.tl fixed) in
  { capacity_rps = !lo; probe_cells = List.rev !cells; fixed }
