(* The net workloads: Table 1's ttcp in both directions against a native
   FreeBSD peer, then Table 2's 1-byte round trips with the workload's
   stack on both ends.  Each phase is one cell on a fresh testbed. *)

open Pb_sim

type stack = Oskit | Linux | Freebsd

(* A connected stream endpoint, whatever stack is underneath. *)
type ep = {
  send : bytes -> int -> int -> int;  (* buf pos len -> sent *)
  recv : bytes -> int -> int;  (* buf len -> received, 0 at end of stream *)
  close : unit -> unit;
}

type side = {
  listen : port:int -> unit -> ep;  (* listen now; the result accepts (blocking) *)
  connect : dst:int32 -> port:int -> ep;
  netstat : unit -> (string * int) list;  (* rexmits, listen_overflow, syncache_added *)
}

(* The OSKit configuration.  Untraced it is Clientos.oskit_host itself;
   traced, the same listing is replayed here so that the driver's etherdev
   and the stack's socket factory can be handed over wrapped. *)
let oskit_env (host : Clientos.host) ~addr =
  if not !Pb_trace.on then Clientos.oskit_host host ~ip:addr ~mask
  else
    Machine.run_in host.Clientos.machine (fun () ->
        Linux_glue.init_ethernet ();
        let osenv = Osenv.create host.Clientos.machine in
        ignore (Fdev.probe osenv);
        let stack = Freebsd_glue.init host.Clientos.machine in
        let env = Posix.create_env () in
        Posix.set_socket_factory env
          (Some (Pb_interpose.socket_factory (Freebsd_glue.socket_factory stack)));
        Posix.set_time_source env (fun () -> Machine.now host.Clientos.machine);
        Posix.set_sleeper env (fun ns -> Kclock.sleep_ns ns);
        match Fdev.lookup osenv Io_if.etherdev_iid with
        | [] -> fail "oskit: no ethernet device found by probe"
        | dev :: _ ->
            ok "open_ether_if" (Freebsd_glue.open_ether_if stack (Pb_interpose.etherdev dev));
            Freebsd_glue.ifconfig stack ~addr ~mask;
            env, stack)

let of_com (s : Io_if.socket) ~close =
  { send = (fun b pos len -> ok "send" (s.Io_if.so_send ~buf:b ~pos ~len));
    recv = (fun b len -> ok "recv" (s.Io_if.so_recv ~buf:b ~pos:0 ~len));
    close = (fun () -> ignore (close s)) }

let bsd_netstat (st : Bsd_socket.stack) () =
  let s = st.Bsd_socket.tcp.Tcp.stats in
  [ "rexmits", s.Tcp.sndrexmitpack + s.Tcp.fastrexmit;
    "listen_overflow", s.Tcp.listen_overflow;
    "syncache_added", s.Tcp.syncache_added ]

let side kind (host : Clientos.host) ~addr =
  match kind with
  | Oskit ->
      let env, stack = oskit_env host ~addr in
      let sock () = ok "socket" (Posix.socket_of_fd env (ok "socket" (Posix.socket env Io_if.Sock_stream))) in
      { listen =
          (fun ~port ->
            let l = sock () in
            ok "bind" (l.Io_if.so_bind { Io_if.sin_addr = addr; sin_port = port });
            ok "listen" (l.Io_if.so_listen ~backlog:16);
            fun () ->
              let c, _ = ok "accept" (l.Io_if.so_accept ()) in
              of_com c ~close:(fun s -> s.Io_if.so_close ()));
        connect =
          (fun ~dst ~port ->
            let s = sock () in
            ok "connect" (s.Io_if.so_connect { Io_if.sin_addr = dst; sin_port = port });
            of_com s ~close:(fun s -> s.Io_if.so_shutdown ()));
        netstat = bsd_netstat stack }
  | Freebsd ->
      let stack = Clientos.freebsd_host host ~ip:addr ~mask in
      let of_t s =
        { send = (fun b pos len -> ok "send" (Bsd_socket.so_send s ~buf:b ~pos ~len));
          recv = (fun b len -> ok "recv" (Bsd_socket.so_recv s ~buf:b ~pos:0 ~len));
          close = (fun () -> ignore (Bsd_socket.so_close s)) }
      in
      { listen =
          (fun ~port ->
            let l = Bsd_socket.tcp_socket stack in
            ok "bind" (Bsd_socket.so_bind l ~port);
            ok "listen" (Bsd_socket.so_listen l ~backlog:16);
            fun () -> of_t (ok "accept" (Bsd_socket.so_accept l)));
        connect =
          (fun ~dst ~port ->
            let s = Bsd_socket.tcp_socket stack in
            ok "connect" (Bsd_socket.so_connect s ~dst ~dport:port);
            of_t s);
        netstat = bsd_netstat stack }
  | Linux ->
      let stack = Clientos.linux_host host ~ip:addr ~mask in
      let of_s s =
        { send = (fun b pos len -> ok "send" (Linux_inet.send stack s ~buf:b ~pos ~len));
          recv = (fun b len -> ok "recv" (Linux_inet.recv stack s ~buf:b ~pos:0 ~len));
          close = (fun () -> Linux_inet.close stack s) }
      in
      { listen =
          (fun ~port ->
            let l = Linux_inet.socket stack in
            Linux_inet.bind stack l ~port;
            Linux_inet.listen stack l ~backlog:16;
            fun () -> of_s (ok "accept" (Linux_inet.accept stack l)));
        connect =
          (fun ~dst ~port ->
            let s = Linux_inet.socket stack in
            ok "connect" (Linux_inet.connect stack s ~dst ~dport:port);
            of_s s);
        netstat =
          (fun () ->
            [ "rexmits", stack.Linux_inet.rexmits;
              "listen_overflow", stack.Linux_inet.listen_overflow;
              "syncache_added", stack.Linux_inet.syncache_added ]) }

let addr_a = ip "10.0.0.1"
let addr_b = ip "10.0.0.2"

(* Workload sizes: bytes per ttcp direction, and round trips. *)
let ttcp_bytes = 4 * 1024 * 1024
let trips = 8000

(* What one cell measured, in virtual time, plus the facts the per-layer
   metrics are built from. *)
type cell = {
  name : string;
  mbit : float;  (* ttcp cells; 0 for the round-trip cell *)
  rtts_ns : int array;  (* round-trip cell only *)
  dur_ns : int;  (* measured window *)
  payload : int;  (* verified payload bytes (ttcp) or trips *)
  failed : int;
  attempted : int;
  frames : int;
  wire_util : float;
  nic_rx_dropped : int;
  server_busy : float;  (* the workload's stack *)
  client_busy : float;  (* the peer *)
  server_busy_ns : int;
  netstat : (string * int) list;  (* of the workload's stack *)
  events : int;
}

(* ttcp: [sender] streams [ttcp_bytes] in seeded write sizes to
   [receiver], which checks every byte.  [workload_is_sender] says which
   end is the workload's stack. *)
let ttcp ~name ~rng ~stream ~sender ~receiver ~workload_is_sender =
  let tb = setup testbed in
  let port = 5001 in
  let recv_side, send_side, connected, done_ = ref None, ref None, ref false, ref false in
  let t_first = ref 0 and t_last = ref 0 and received = ref 0 and bad = ref 0 in
  let base_a = ref [||] and base_b = ref [||] in
  let sizes =
    (* Seeded write sizes of 4, 8 or 16 KB: Table 1's 4 KB ttcp block
       with a seeded mix of larger writes. *)
    let rec gen acc left =
      if left <= 0 then List.rev acc
      else
        let n = min left (4096 lsl Random.State.int rng 3) in
        gen (n :: acc) (left - n)
    in
    gen [] ttcp_bytes
  in
  let ha = tb.Clientos.host_a and hb = tb.Clientos.host_b in
  setup (fun () ->
      recv_side := Some (side receiver hb ~addr:addr_b);
      send_side := Some (side sender ha ~addr:addr_a));
  let rs = Option.get !recv_side and ss = Option.get !send_side in
  Clientos.spawn hb ~name:"sink" (fun () ->
      let e = rs.listen ~port () in
      let buf = Bytes.create 16384 in
      let rec loop () =
        match e.recv buf 16384 with
        | 0 ->
            t_last := Machine.now hb.Clientos.machine;
            e.close ();
            done_ := true
        | n ->
            for i = 0 to n - 1 do
              if Bytes.get buf i <> pattern ~stream (!received + i) then incr bad
            done;
            received := !received + n;
            loop ()
      in
      loop ());
  Clientos.spawn ha ~name:"source" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let e = ss.connect ~dst:addr_b ~port in
      connected := true;
      (* Let set-up end before the first byte goes out. *)
      Kclock.sleep_ns 1_000_000;
      let block = Bytes.create 16384 in
      t_first := Machine.now ha.Clientos.machine;
      base_a := busy_vec ha.Clientos.machine;
      base_b := busy_vec hb.Clientos.machine;
      let pos = ref 0 in
      List.iter
        (fun n ->
          for i = 0 to n - 1 do
            Bytes.set block i (pattern ~stream (!pos + i))
          done;
          let rec push off = if off < n then push (off + e.send block off (n - off)) in
          push 0;
          pos := !pos + n)
        sizes;
      e.close ());
  setup (fun () -> ignore (run_until tb ~until:(fun () -> !connected)));
  let frames0 = Wire.frames_carried tb.Clientos.wire in
  let bytes0 = Wire.bytes_carried tb.Clientos.wire in
  let events = measure tb ~until:(fun () -> !done_) in
  if not !done_ then fail "%s: transfer did not finish" name;
  let dur = !t_last - !t_first in
  let frames = Wire.frames_carried tb.Clientos.wire - frames0 in
  let wire_bytes = Wire.bytes_carried tb.Clientos.wire - bytes0 in
  let busy_a = busy_since ha.Clientos.machine !base_a
  and busy_b = busy_since hb.Clientos.machine !base_b in
  let server_busy, client_busy, server_m, stack_side =
    if workload_is_sender then busy_a, busy_b, ha, ss else busy_b, busy_a, hb, rs
  in
  ignore server_m;
  let failed = (if !bad > 0 then 1 else 0) + if !received <> ttcp_bytes then 1 else 0 in
  let c =
    { name;
      mbit = float_of_int (!received * 8) *. 1e3 /. float_of_int dur;
      rtts_ns = [||];
      dur_ns = dur;
      payload = !received;
      failed;
      attempted = 1;
      frames;
      wire_util = float_of_int (wire_bytes * 8) *. 1e9 /. float_of_int Pb_knobs.wire_bps /. float_of_int dur;
      nic_rx_dropped = Nic.rx_dropped ha.Clientos.nic + Nic.rx_dropped hb.Clientos.nic;
      server_busy = float_of_int server_busy /. float_of_int dur;
      client_busy = float_of_int client_busy /. float_of_int dur;
      server_busy_ns = server_busy;
      netstat = stack_side.netstat ();
      events }
  in
  finish ~name tb;
  c

(* rtcp: 1-byte round trips with the workload's stack on both ends.
   [pingers] connections run at once, each a closed loop with seeded
   exponential think times, so trips sometimes meet at a CPU and the
   latency distribution depends on the seed. *)
let pingers = 8
let think_mean_ns = 1_000_000.0

let rtt ~name ~rng ~kind =
  let tb = setup testbed in
  let port = 5002 in
  let ha = tb.Clientos.host_a and hb = tb.Clientos.host_b in
  let srv, cli = setup (fun () -> side kind hb ~addr:addr_b, side kind ha ~addr:addr_a) in
  let per = trips / pingers in
  let gaps =
    Array.init pingers (fun _ ->
        Array.init per (fun _ ->
            int_of_float (-.think_mean_ns *. log (1.0 -. Random.State.float rng 1.0))))
  in
  let samples = Array.make (per * pingers) 0 in
  let connected = ref 0 and finished = ref 0 and bad = ref 0 in
  let t_first = ref max_int and t_last = ref 0 in
  let base_b = ref [||] in
  Clientos.spawn hb ~name:"echo-listen" (fun () ->
      let accept = srv.listen ~port in
      for k = 0 to pingers - 1 do
        let e = accept () in
        Clientos.spawn hb ~name:(Printf.sprintf "echo%d" k) (fun () ->
            let buf = Bytes.create 1 in
            let rec loop () =
              match e.recv buf 1 with
              | 0 -> e.close ()
              | _ ->
                  ignore (e.send buf 0 1);
                  loop ()
            in
            loop ())
      done);
  let m = ha.Clientos.machine in
  for k = 0 to pingers - 1 do
    Clientos.spawn ha ~name:(Printf.sprintf "ping%d" k) (fun () ->
        Kclock.sleep_ns (2_000_000 + (k * 100_000));
        let e = cli.connect ~dst:addr_b ~port in
        let one = Bytes.create 1 and buf = Bytes.create 1 in
        (* One unmeasured trip warms both ends. *)
        Bytes.set one 0 'w';
        ignore (e.send one 0 1);
        ignore (e.recv buf 1);
        incr connected;
        while !connected < pingers do
          Kclock.sleep_ns 100_000
        done;
        if !t_first = max_int then begin
          t_first := Machine.now m;
          base_b := busy_vec hb.Clientos.machine
        end;
        for i = 0 to per - 1 do
          (* A trip is timed from when it was due, the end of its think
             time, so a late wake-up on a busy CPU counts against it. *)
          let due = Machine.now m + max 1 gaps.(k).(i) in
          Kclock.sleep_ns (max 1 gaps.(k).(i));
          let c = pattern ~stream:((k * per) + i) 0 in
          Bytes.set one 0 c;
          ignore (e.send one 0 1);
          if e.recv buf 1 <> 1 || Bytes.get buf 0 <> c then incr bad;
          samples.((k * per) + i) <- Machine.now m - due
        done;
        t_last := max !t_last (Machine.now m);
        e.close ();
        incr finished)
  done;
  setup (fun () -> ignore (run_until tb ~until:(fun () -> !connected = pingers)));
  let frames0 = Wire.frames_carried tb.Clientos.wire in
  let events = measure tb ~until:(fun () -> !finished = pingers) in
  if !finished < pingers then fail "%s: round trips did not finish" name;
  let dur = !t_last - !t_first in
  let c =
    { name;
      mbit = 0.0;
      rtts_ns = samples;
      dur_ns = dur;
      payload = Array.length samples;
      failed = !bad;
      attempted = Array.length samples;
      frames = Wire.frames_carried tb.Clientos.wire - frames0;
      wire_util = 0.0;
      nic_rx_dropped = Nic.rx_dropped ha.Clientos.nic + Nic.rx_dropped hb.Clientos.nic;
      server_busy = float_of_int (busy_since hb.Clientos.machine !base_b) /. float_of_int dur;
      client_busy = 0.0;
      server_busy_ns = busy_since hb.Clientos.machine !base_b;
      netstat = srv.netstat ();
      events }
  in
  finish ~name tb;
  c

(* One repetition of a net workload. *)
let run ~kind ~seed =
  Pb_knobs.paper ();
  let rng = Random.State.make [| seed; 1 |] in
  let send =
    ttcp ~name:"send" ~rng ~stream:seed ~sender:kind ~receiver:Freebsd ~workload_is_sender:true
  in
  let recv =
    ttcp ~name:"recv" ~rng ~stream:(seed + 1) ~sender:Freebsd ~receiver:kind
      ~workload_is_sender:false
  in
  let rtt = rtt ~name:"rtt" ~rng ~kind in
  [ send; recv; rtt ]
