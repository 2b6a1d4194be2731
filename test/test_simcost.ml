(* The simulator's host cost: the World event heap against a sorted-list
   reference model, closures released once fired or cancelled, the
   timing-wheel registry emptied between simulations, and the per-stack
   connection indexes (live set, ports, listeners, embryonic counts,
   TIME_WAIT) checked against brute-force recomputation while thousands
   of connections churn through TIME_WAIT. *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

(* ---- World heap vs a reference model ----

   The model keeps every event under its (time, seq) key, the order the
   old sorted queue had, and fires the least live key.  Delays repeat
   and go negative (clamped to now), so equal times are common; each
   scheduled event may name an earlier one to cancel when it fires, so
   cancels from inside an action are covered. *)

type op =
  | Sched of int * int option (* delay (may be negative: clamps to now), victim *)
  | Cancel of int
  | Step

let op_gen =
  QCheck.Gen.(
    frequency
      [ ( 4,
          map2
            (fun d v -> Sched (d, v))
            (int_range (-3) 12)
            (opt ~ratio:0.3 (int_range 0 40)) );
        (2, map (fun k -> Cancel k) (int_range 0 40));
        (3, return Step) ])

let show_op = function
  | Sched (d, v) ->
      Printf.sprintf "sched %d%s" d
        (match v with Some v -> Printf.sprintf " cancels #%d" v | None -> "")
  | Cancel k -> Printf.sprintf "cancel #%d" k
  | Step -> "step"

type m_state = Live | Fired | Cancelled
type m_ev = { m_time : int; m_seq : int; mutable m_state : m_state }

let prop_heap_model =
  QCheck.Test.make ~name:"World heap: agrees with a sorted-list model" ~count:500
    (QCheck.make ~print:QCheck.Print.(list show_op) QCheck.Gen.(list_size (int_range 0 200) op_gen))
    (fun ops ->
      let w = World.create () in
      let handles = ref [||] and model = ref [||] and victims = ref [] in
      let m_now = ref 0 in
      let fired = ref [] and m_fired = ref [] in
      let cancelled_ran = ref false in
      let nth arr k = if Array.length arr = 0 then None else Some (k mod Array.length arr) in
      let m_cancel i =
        let e = (!model).(i) in
        if e.m_state = Live then e.m_state <- Cancelled
      in
      let m_step () =
        let best = ref None in
        Array.iteri
          (fun i e ->
            if e.m_state = Live then
              match !best with
              | Some j
                when let b = (!model).(j) in
                     (b.m_time, b.m_seq) <= (e.m_time, e.m_seq) -> ()
              | _ -> best := Some i)
          !model;
        match !best with
        | None -> ()
        | Some i ->
            let e = (!model).(i) in
            e.m_state <- Fired;
            m_now := max !m_now e.m_time;
            m_fired := i :: !m_fired;
            (* the victim the real action will cancel *)
            Option.iter m_cancel (List.assoc_opt i !victims)
      in
      let agree = ref true in
      let check () =
        let live =
          Array.fold_left (fun n e -> if e.m_state = Live then n + 1 else n) 0 !model
        in
        if World.pending w <> live || World.now w <> !m_now || !fired <> !m_fired then
          agree := false
      in
      List.iter
        (fun op ->
          (match op with
          | Sched (d, victim) ->
              let id = Array.length !handles in
              let victim = Option.bind victim (fun v -> if id = 0 then None else Some (v mod id)) in
              let action () =
                if (!model).(id).m_state = Cancelled then cancelled_ran := true;
                fired := id :: !fired;
                Option.iter (fun v -> World.cancel (!handles).(v)) victim
              in
              let time = World.now w + d in
              let h = if d mod 2 = 0 then World.at w time action else World.after w d action in
              handles := Array.append !handles [| h |];
              model :=
                Array.append !model [| { m_time = max time !m_now; m_seq = id; m_state = Live } |];
              Option.iter (fun v -> victims := (id, v) :: !victims) victim
          | Cancel k -> (
              match nth !handles k with
              | Some i ->
                  World.cancel (!handles).(i);
                  m_cancel i
              | None -> ())
          | Step ->
              m_step ();
              ignore (World.step w));
          check ())
        ops;
      (* drain both to the end *)
      while World.pending w > 0 do
        m_step ();
        ignore (World.step w);
        check ()
      done;
      !agree && (not !cancelled_ran) && World.step w = false)

(* Fired and cancelled closures must be collectable even while the
   caller still holds the event handles. *)
let test_closures_released () =
  let w = World.create () in
  let weak = Weak.create 3 in
  let schedule i time =
    let r = ref i in
    Weak.set weak i (Some r);
    World.at w time (fun () -> r := !r + 1)
  in
  let e0 = schedule 0 10 in
  let e1 = schedule 1 20 in
  let e2 = schedule 2 30 in
  Alcotest.(check bool) "first step fires" true (World.step w);
  World.cancel e1;
  Gc.full_major ();
  Alcotest.(check bool) "fired closure collected" true (Weak.get weak 0 = None);
  Alcotest.(check bool) "cancelled closure collected" true (Weak.get weak 1 = None);
  Alcotest.(check bool) "pending closure kept" true (Weak.get weak 2 <> None);
  Alcotest.(check int) "one event pending" 1 (World.pending w);
  ignore (Sys.opaque_identity (e0, e1, e2))

(* ---- the Kwheel registry is emptied between simulations ---- *)

let test_registry_reset () =
  Clientos.reset_globals ();
  let weak = Weak.create 1 in
  let arm () =
    let m = Machine.create ~ram_bytes:(1 lsl 20) (World.create ()) in
    ignore (Kwheel.for_machine m);
    Weak.set weak 0 (Some m)
  in
  arm ();
  Alcotest.(check int) "the machine registered" 1 (List.length !Kwheel.registry);
  Clientos.reset_globals ();
  Alcotest.(check int) "reset empties the registry" 0 (List.length !Kwheel.registry);
  Gc.full_major ();
  Alcotest.(check bool) "the earlier machine is unreachable" true (Weak.get weak 0 = None)

(* ---- connection bookkeeping under TIME_WAIT churn ----

   Host A opens [n] connections to B and closes each one first, so A
   holds the TIME_WAIT pcbs.  Every index is recomputed by brute force
   from the live set during and after the churn.  A readiness hook on
   every client socket logs its TIME_WAIT entries and exits; evictions
   (the tw_max cap, the memory-pressure reclaim) must take the oldest
   first.  With A's TIME_WAIT set full, a listener on A must still answer
   a SYN, and an ephemeral port handed out after rewinding the allocator
   must not be in use. *)

type conn = { c_lport : unit -> int; c_tw : unit -> bool; c_closed : unit -> bool }

type side = {
  serve : port:int -> unit; (* on B: accept forever, drain to EOF, close *)
  listen_a : port:int -> unit;
  connect_a : dport:int -> hook:(unit -> unit) -> conn; (* A to B, then close *)
  connect_b : dport:int -> bool; (* B to A, established? *)
  rewind_a : unit -> unit; (* A's ephemeral allocator back to 1024 *)
  port_users_a : int -> int; (* live pcbs on A bound to a port *)
  tw_len_a : unit -> int;
  reclaim_a : unit -> unit;
  check_indexes : unit -> unit; (* both stacks *)
  check_gone_a : unit -> unit; (* closed client pcbs left every index *)
}

let counts keys =
  let h = Hashtbl.create 64 in
  List.iter
    (fun k -> Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)))
    keys;
  h

let check_refs name (refs : (int, int) Hashtbl.t) live_ports =
  let want = counts live_ports in
  if Hashtbl.length want <> Hashtbl.length refs then
    Alcotest.failf "%s: %d ports in use, index has %d" name (Hashtbl.length want)
      (Hashtbl.length refs);
  Hashtbl.iter
    (fun p n ->
      if Hashtbl.find_opt refs p <> Some n then Alcotest.failf "%s: port %d count wrong" name p)
    want

(* [listening] in live order must be exactly what the listener index
   holds, port by port. *)
let check_listeners name index ~port_of listening =
  let ports = List.sort_uniq compare (List.map port_of listening) in
  if List.length ports <> Hashtbl.length index then
    Alcotest.failf "%s: listener index has %d ports, want %d" name (Hashtbl.length index)
      (List.length ports);
  List.iter
    (fun p ->
      let want = List.filter (fun l -> port_of l = p) listening in
      let got = Option.value ~default:[] (Hashtbl.find_opt index p) in
      if List.length want <> List.length got || not (List.for_all2 ( == ) want got) then
        Alcotest.failf "%s: listeners on port %d out of order" name p)
    ports

let bsd_check name (t : Tcp.t) =
  let live = Dlist.to_list t.Tcp.pcbs in
  List.iter (fun p -> if p.Tcp.live = None then Alcotest.failf "%s: live pcb unlinked" name) live;
  check_refs name t.Tcp.port_refs (List.map (fun p -> p.Tcp.lport) live);
  let listening = List.filter (fun p -> p.Tcp.t_state = Tcp.Listen) live in
  check_listeners name t.Tcp.listeners ~port_of:(fun p -> p.Tcp.lport) listening;
  List.iter
    (fun l ->
      let n =
        List.length
          (List.filter
             (fun p ->
               p.Tcp.t_state = Tcp.Syn_received
               && match p.Tcp.listen_parent with Some x -> x == l | None -> false)
             live)
      in
      if l.Tcp.embryos <> n then
        Alcotest.failf "%s: embryonic count %d, brute force %d" name l.Tcp.embryos n)
    listening;
  let tw = Dlist.to_list t.Tcp.tw_list in
  List.iter
    (fun p ->
      if p.Tcp.live = None || p.Tcp.t_state <> Tcp.Time_wait then
        Alcotest.failf "%s: TIME_WAIT set holds a dead pcb" name)
    tw;
  let live_tw = List.filter (fun p -> p.Tcp.t_state = Tcp.Time_wait) live in
  if List.length live_tw <> List.length tw then
    Alcotest.failf "%s: %d live TIME_WAIT pcbs, set has %d" name (List.length live_tw)
      (List.length tw);
  Hashtbl.iter
    (fun _ p -> if p.Tcp.live = None then Alcotest.failf "%s: dead pcb in pcb_hash" name)
    t.Tcp.pcb_hash

let linux_check name (t : Linux_inet.stack) =
  let live = Dlist.to_list t.Linux_inet.socks in
  List.iter
    (fun s -> if s.Linux_inet.live = None then Alcotest.failf "%s: live sock unlinked" name)
    live;
  check_refs name t.Linux_inet.port_refs (List.map (fun s -> s.Linux_inet.lport) live);
  let listening = List.filter (fun s -> s.Linux_inet.state = Linux_inet.Listen) live in
  check_listeners name t.Linux_inet.listen_socks ~port_of:(fun s -> s.Linux_inet.lport) listening;
  List.iter
    (fun l ->
      let n =
        List.length
          (List.filter
             (fun s ->
               s.Linux_inet.state = Linux_inet.Syn_recv
               && match s.Linux_inet.parent with Some x -> x == l | None -> false)
             live)
      in
      if l.Linux_inet.embryos <> n then
        Alcotest.failf "%s: embryonic count %d, brute force %d" name l.Linux_inet.embryos n)
    listening;
  let tw = Dlist.to_list t.Linux_inet.tw_list in
  List.iter
    (fun s ->
      if s.Linux_inet.live = None || s.Linux_inet.state <> Linux_inet.Time_wait then
        Alcotest.failf "%s: TIME_WAIT set holds a dead sock" name)
    tw;
  let live_tw = List.filter (fun s -> s.Linux_inet.state = Linux_inet.Time_wait) live in
  if List.length live_tw <> List.length tw then
    Alcotest.failf "%s: %d live TIME_WAIT socks, set has %d" name (List.length live_tw)
      (List.length tw);
  Hashtbl.iter
    (fun _ s ->
      if s.Linux_inet.live = None then Alcotest.failf "%s: dead sock in sock_hash" name)
    t.Linux_inet.sock_hash

let bsd_side tb =
  let sa = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let sb = Clientos.freebsd_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  let ta = sa.Bsd_socket.tcp in
  let conn_of s =
    let p = s.Bsd_socket.pcb in
    { c_lport = (fun () -> p.Tcp.lport);
      c_tw = (fun () -> p.Tcp.t_state = Tcp.Time_wait);
      c_closed = (fun () -> p.Tcp.t_state = Tcp.Closed) }
  in
  let pcbs = ref [] in
  { serve =
      (fun ~port ->
        let ls = Bsd_socket.tcp_socket sb in
        ok (Bsd_socket.so_bind ls ~port);
        ok (Bsd_socket.so_listen ls ~backlog:64);
        let buf = Bytes.create 16 in
        while true do
          let c = ok (Bsd_socket.so_accept ls) in
          while ok (Bsd_socket.so_recv c ~buf ~pos:0 ~len:16) > 0 do () done;
          ignore (Bsd_socket.so_close c)
        done);
    listen_a =
      (fun ~port ->
        let ls = Bsd_socket.tcp_socket sa in
        ok (Bsd_socket.so_bind ls ~port);
        ok (Bsd_socket.so_listen ls ~backlog:8));
    connect_a =
      (fun ~dport ~hook ->
        let s = Bsd_socket.tcp_socket sa in
        ignore (Bsd_socket.so_add_listener s ~mask:Io_if.aio_read (fun _ -> hook ()));
        ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport);
        pcbs := s.Bsd_socket.pcb :: !pcbs;
        let c = conn_of s in
        ignore (Bsd_socket.so_close s);
        c);
    connect_b =
      (fun ~dport ->
        let s = Bsd_socket.tcp_socket sb in
        ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.1") ~dport);
        s.Bsd_socket.pcb.Tcp.t_state = Tcp.Established);
    rewind_a = (fun () -> ta.Tcp.next_ephemeral <- 1024);
    port_users_a =
      (fun port ->
        List.length (List.filter (fun p -> p.Tcp.lport = port) (Dlist.to_list ta.Tcp.pcbs)));
    tw_len_a = (fun () -> Dlist.length ta.Tcp.tw_list);
    reclaim_a = (fun () -> Tcp.tcp_reclaim ta);
    check_indexes =
      (fun () ->
        bsd_check "A" ta;
        bsd_check "B" sb.Bsd_socket.tcp);
    check_gone_a =
      (fun () ->
        List.iter
          (fun p ->
            if p.Tcp.t_state = Tcp.Closed then begin
              if p.Tcp.live <> None || p.Tcp.tw_node <> None || p.Tcp.embryonic then
                Alcotest.fail "A: a detached pcb is still indexed";
              match Hashtbl.find_opt ta.Tcp.pcb_hash (Tcp.hash_key p) with
              | Some x when x == p -> Alcotest.fail "A: a detached pcb is still hashed"
              | _ -> ()
            end)
          !pcbs) }

let linux_side tb =
  let sa = Clientos.linux_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  let conn_of s =
    { c_lport = (fun () -> s.Linux_inet.lport);
      c_tw = (fun () -> s.Linux_inet.state = Linux_inet.Time_wait);
      c_closed = (fun () -> s.Linux_inet.state = Linux_inet.Closed) }
  in
  let socks = ref [] in
  { serve =
      (fun ~port ->
        let ls = Linux_inet.socket sb in
        Linux_inet.bind sb ls ~port;
        Linux_inet.listen sb ls ~backlog:64;
        let buf = Bytes.create 16 in
        while true do
          let c = ok (Linux_inet.accept sb ls) in
          while ok (Linux_inet.recv sb c ~buf ~pos:0 ~len:16) > 0 do () done;
          Linux_inet.close sb c
        done);
    listen_a =
      (fun ~port ->
        let ls = Linux_inet.socket sa in
        Linux_inet.bind sa ls ~port;
        Linux_inet.listen sa ls ~backlog:8);
    connect_a =
      (fun ~dport ~hook ->
        let s = Linux_inet.socket sa in
        ignore (Linux_inet.add_listener s ~mask:Io_if.aio_read (fun _ -> hook ()));
        ok (Linux_inet.connect sa s ~dst:(ip "10.0.0.2") ~dport);
        socks := s :: !socks;
        let c = conn_of s in
        Linux_inet.close sa s;
        c);
    connect_b =
      (fun ~dport ->
        let s = Linux_inet.socket sb in
        ok (Linux_inet.connect sb s ~dst:(ip "10.0.0.1") ~dport);
        s.Linux_inet.state = Linux_inet.Established);
    rewind_a = (fun () -> sa.Linux_inet.next_port <- 1024);
    port_users_a =
      (fun port ->
        List.length
          (List.filter (fun s -> s.Linux_inet.lport = port) (Dlist.to_list sa.Linux_inet.socks)));
    tw_len_a = (fun () -> Dlist.length sa.Linux_inet.tw_list);
    reclaim_a = (fun () -> Linux_inet.lx_reclaim sa);
    check_indexes =
      (fun () ->
        linux_check "A" sa;
        linux_check "B" sb);
    check_gone_a =
      (fun () ->
        List.iter
          (fun s ->
            if s.Linux_inet.state = Linux_inet.Closed then begin
              if s.Linux_inet.live <> None || s.Linux_inet.tw_node <> None
                 || s.Linux_inet.embryonic
              then Alcotest.fail "A: a detached sock is still indexed";
              match Hashtbl.find_opt sa.Linux_inet.sock_hash (Linux_inet.sock_key s) with
              | Some x when x == s -> Alcotest.fail "A: a detached sock is still hashed"
              | _ -> ()
            end)
          !socks) }

let churn ~make_side ~tw_max () =
  Cost.with_config (fun c -> c.Cost.tw_max <- tw_max) (fun () ->
      Clientos.reset_globals ();
      Fdev.clear_drivers ();
      let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
      let side = make_side tb in
      let n = 2000 and workers = 8 in
      (* TIME_WAIT entries in order; evictions must pop the front. *)
      let fifo = Queue.create () in
      let order_ok = ref true and evicted = ref 0 in
      let conns = ref [] in
      let phase = ref 0 in
      let spawn_a f = Clientos.spawn tb.Clientos.host_a f in
      Clientos.spawn tb.Clientos.host_b (fun () -> side.serve ~port:7000);
      spawn_a (fun () -> side.listen_a ~port:9000);
      let started = ref 0 and finished = ref 0 in
      for _ = 1 to workers do
        spawn_a (fun () ->
            Kclock.sleep_ns 1_000_000;
            while !started < n do
              incr started;
              (* The hook logs this connection's TIME_WAIT entry and exit;
                 it has nothing to log before connect returns. *)
              let cell = ref None and in_tw = ref false in
              let hook () =
                match !cell with
                | None -> ()
                | Some c ->
                    if c.c_tw () && not !in_tw then begin
                      in_tw := true;
                      Queue.add c fifo
                    end
                    else if c.c_closed () && !in_tw then begin
                      in_tw := false;
                      (match Queue.take_opt fifo with
                      | Some oldest when oldest == c -> ()
                      | _ -> order_ok := false);
                      incr evicted
                    end
              in
              let c = side.connect_a ~dport:7000 ~hook in
              cell := Some c;
              conns := c :: !conns;
              incr finished
            done)
      done;
      let settled () =
        !finished = n && List.for_all (fun c -> c.c_tw () || c.c_closed ()) !conns
      in
      let steps = ref 0 in
      Clientos.run tb ~until:(fun () ->
          incr steps;
          if !steps mod 500 = 0 then side.check_indexes ();
          settled ());
      side.check_indexes ();
      let want_tw = if tw_max = 0 then n else tw_max in
      Alcotest.(check int) "TIME_WAIT holds the newest connections" want_tw (side.tw_len_a ());
      Alcotest.(check int) "the cap evicted the overflow" (n - want_tw) !evicted;
      Alcotest.(check bool) "evictions took the oldest first" true !order_ok;
      side.check_gone_a ();
      (* A SYN to A's listener with A's TIME_WAIT set full, and a port
         handed out after rewinding the allocator. *)
      let answered = ref false and port_ok = ref false in
      Clientos.spawn tb.Clientos.host_b (fun () ->
          answered := side.connect_b ~dport:9000;
          phase := 1);
      Clientos.run tb ~until:(fun () -> !phase = 1);
      Alcotest.(check bool) "SYN to the listener answered" true !answered;
      spawn_a (fun () ->
          side.rewind_a ();
          let c = side.connect_a ~dport:7000 ~hook:ignore in
          port_ok := side.port_users_a (c.c_lport ()) = 1;
          phase := 2);
      Clientos.run tb ~until:(fun () -> !phase = 2);
      Alcotest.(check bool) "ephemeral port not in use" true !port_ok;
      (* Memory pressure reclaims every TIME_WAIT pcb, oldest first. *)
      let before = Queue.length fifo in
      side.reclaim_a ();
      Alcotest.(check int) "reclaim emptied TIME_WAIT" 0 (side.tw_len_a ());
      Alcotest.(check int) "reclaim took every entry" 0 (Queue.length fifo);
      Alcotest.(check bool) "reclaim took the oldest first" true !order_ok;
      Alcotest.(check bool) "reclaim had entries to take" true (before >= want_tw);
      side.check_indexes ();
      side.check_gone_a ())

let suite =
  [ QCheck_alcotest.to_alcotest prop_heap_model;
    Alcotest.test_case "World: fired and cancelled closures are released" `Quick
      test_closures_released;
    Alcotest.test_case "reset_globals empties the Kwheel registry" `Quick test_registry_reset;
    Alcotest.test_case "bsd bookkeeping: 2000-connection TIME_WAIT churn" `Quick
      (churn ~make_side:bsd_side ~tw_max:0);
    Alcotest.test_case "bsd bookkeeping: churn with tw_max" `Quick
      (churn ~make_side:bsd_side ~tw_max:64);
    Alcotest.test_case "linux bookkeeping: 2000-connection TIME_WAIT churn" `Quick
      (churn ~make_side:linux_side ~tw_max:0);
    Alcotest.test_case "linux bookkeeping: churn with tw_max" `Quick
      (churn ~make_side:linux_side ~tw_max:64) ]
