(* The content workload: a closed loop of persistent HTTP/1.1 clients
   pipelining against the OSKit configuration's httpd (1 CPU, the modern
   knobs including sendfile and sg_tx).  The working set is files of 1 to
   16 KB, about four times the 64-block buffer cache, requested with a
   seeded skewed popularity. *)

open Pb_sim

let clients = 16
let depth = 8
let reqs_per_client = 320
let nfiles = 120

(* Zipf-like popularity, exponent 0.8.  The file of popularity rank r is
   (1 + r mod 16) KB, so every seed offers the same mix of sizes at every
   popularity; the seed picks which file holds each rank and the request
   sequence. *)
let ranks = Array.init nfiles (fun r -> 1.0 /. (float_of_int (r + 1) ** 0.8))
let rank_size r = 1024 * (1 + (r mod 16))

let popularity rng =
  let perm = Array.init nfiles Fun.id in
  for i = nfiles - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let total = Array.fold_left ( +. ) 0.0 ranks in
  let cdf = Array.make nfiles 0.0 in
  ignore
    (Array.fold_left
       (fun (i, acc) x ->
         cdf.(i) <- (acc +. x) /. total;
         i + 1, acc +. x)
       (0, 0.0) ranks);
  let sizes = Array.make nfiles 0 in
  Array.iteri (fun r fi -> sizes.(fi) <- rank_size r) perm;
  let draw () =
    let u = Random.State.float rng 1.0 in
    let rec find r = if r >= nfiles - 1 || cdf.(r) >= u then r else find (r + 1) in
    perm.(find 0)
  in
  perm, sizes, draw

type cell = {
  lat_ns : int array;
  attempted : int;
  failed : int;
  mismatches : int;
  dur_ns : int;  (* first request sent to last response complete *)
  server_busy : float;
  client_busy : float;
  wire_util : float;
  frames : int;
  nic_rx_dropped : int;
  events : int;
  httpd : Httpd.stats;
  reactor : Reactor.stats;
  netstat : (string * int) list;
  body_bytes : int;
}

let server_ip = ip "10.0.0.2"
let client_ip = ip "10.0.0.1"
let port = 80

(* Client CPUs: receiving a body costs a copy and a checksum that the
   sendfile server does not pay, so one client CPU would set the rate. *)
let client_cpus = 4

let run ~seed =
  Pb_knobs.content ();
  let name = "content" in
  let rng = Random.State.make [| seed; 4 |] in
  let perm, sizes, draw = popularity rng in
  let plan = Array.init clients (fun _ -> Array.init reqs_per_client (fun _ -> draw ())) in
  let tb = setup (testbed ~cpus:(client_cpus, 1)) in
  let server = tb.Clientos.host_b and chost = tb.Clientos.host_a in
  let root, bodies, stack, cstack, sock =
    setup (fun () ->
        let root, bodies = Pb_http.make_root ~disk_bytes:(16 lsl 20) sizes in
        let env, stack = Pb_net.oskit_env server ~addr:server_ip in
        let sock =
          Machine.run_in server.Clientos.machine (fun () ->
              ok "socket" (Posix.socket_of_fd env (ok "socket" (Posix.socket env Io_if.Sock_stream))))
        in
        let cstack = Clientos.freebsd_host chost ~ip:client_ip ~mask in
        root, bodies, stack, cstack, sock)
  in
  let finished = ref false in
  let reactor = Reactor.create () in
  let stats = ref None in
  Clientos.spawn server ~name:"httpd" (fun () ->
      ok "bind" (sock.Io_if.so_bind { Io_if.sin_addr = server_ip; sin_port = port });
      ok "listen" (sock.Io_if.so_listen ~backlog:128);
      stats := Some (Httpd.serve_reactor ~reactor ~root ~sock ());
      Reactor.run reactor ~until:(fun () -> !finished));
  let cm = chost.Clientos.machine in
  let get fi = Printf.sprintf "GET /%s HTTP/1.1\r\nHost: b\r\n\r\n" (Pb_http.file_name fi) in
  (* One persistent connection serving [files] in pipelined bursts;
     [record] receives (due, completion) per response. *)
  let session files ~record =
    let s, send, recv = Pb_http.client_socket cstack in
    let errors = ref 0 and wrong = ref 0 in
    (match Bsd_socket.so_connect s ~dst:server_ip ~dport:port with
    | Error _ -> errors := Array.length files
    | Ok () ->
        let rd = Pb_http.reader ~recv ~now:(fun () -> Machine.now cm) in
        let n = Array.length files in
        let sent = ref 0 in
        while !sent < n do
          let burst = min depth (n - !sent) in
          let b = Buffer.create (burst * 48) in
          for k = 0 to burst - 1 do
            Buffer.add_string b (get files.(!sent + k))
          done;
          let due = Machine.now cm in
          if not (send (Buffer.contents b)) then errors := !errors + burst
          else
            for k = 0 to burst - 1 do
              let fi = files.(!sent + k) in
              match Pb_http.read_response rd ~expect:bodies.(fi) with
              | Ok t -> record due t
              | Error e ->
                  incr errors;
                  if e = Pb_http.wrong then incr wrong
            done;
          sent := !sent + burst
        done);
    ignore (Bsd_socket.so_close s);
    !errors, !wrong
  in
  (* Warm-up: resolve ARP and fault the hottest files into the cache. *)
  let warm = ref false in
  Clientos.spawn chost ~name:"warmup" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let errs, _ = session (Array.sub perm 0 depth) ~record:(fun _ _ -> ()) in
      if errs > 0 then fail "%s: warm-up failed" name;
      warm := true);
  setup (fun () -> ignore (run_until tb ~until:(fun () -> !warm)));
  let base_s = busy_vec server.Clientos.machine and base_c = busy_vec cm in
  let frames0 = Wire.frames_carried tb.Clientos.wire in
  let bytes0 = Wire.bytes_carried tb.Clientos.wire in
  let t_first = ref max_int and t_last = ref 0 in
  let lat = Array.make (clients * reqs_per_client) (-1) in
  let failed = ref 0 and wrong = ref 0 and done_clients = ref 0 in
  for c = 0 to clients - 1 do
    Clientos.spawn chost ~cpu:(c mod client_cpus) ~name:(Printf.sprintf "c%d" c) (fun () ->
        Kclock.sleep_ns (1_000_000 + (c * 1_000));
        let i = ref 0 in
        let errs, w =
          session plan.(c) ~record:(fun due t ->
              t_first := min !t_first due;
              t_last := max !t_last t;
              lat.((c * reqs_per_client) + !i) <- t - due;
              incr i)
        in
        failed := !failed + errs;
        wrong := !wrong + w;
        incr done_clients)
  done;
  let events = measure tb ~until:(fun () -> !done_clients = clients) in
  finished := true;
  if !done_clients < clients then fail "%s: clients did not finish" name;
  let dur = max 1 (!t_last - !t_first) in
  let wire_bytes = Wire.bytes_carried tb.Clientos.wire - bytes0 in
  let bsd = stack.Bsd_socket.tcp.Tcp.stats in
  let body_bytes =
    Array.fold_left (fun a files -> Array.fold_left (fun a fi -> a + sizes.(fi)) a files) 0 plan
  in
  let c =
    { lat_ns = Array.of_list (List.filter (fun x -> x >= 0) (Array.to_list lat));
      attempted = clients * reqs_per_client;
      failed = !failed;
      mismatches = !wrong;
      dur_ns = dur;
      server_busy = float_of_int (busy_since server.Clientos.machine base_s) /. float_of_int dur;
      client_busy = float_of_int (busy_since cm base_c) /. float_of_int dur;
      wire_util = float_of_int (wire_bytes * 8) *. 1e9 /. float_of_int Pb_knobs.wire_bps /. float_of_int dur;
      frames = Wire.frames_carried tb.Clientos.wire - frames0;
      nic_rx_dropped = Nic.rx_dropped server.Clientos.nic + Nic.rx_dropped chost.Clientos.nic;
      events;
      httpd = Option.get !stats;
      reactor = Reactor.stats reactor;
      netstat =
        [ "rexmits", bsd.Tcp.sndrexmitpack + bsd.Tcp.fastrexmit;
          "listen_overflow", bsd.Tcp.listen_overflow;
          "syncache_added", bsd.Tcp.syncache_added ];
      body_bytes }
  in
  finish ~name tb;
  c
