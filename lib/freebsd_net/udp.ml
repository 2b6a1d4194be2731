(* ENCAPSULATED LEGACY CODE — udp_usrreq.c. *)

let udp_hlen = 8

type pcb = {
  mutable lport : int;
  mutable laddr : int32;
  mutable rport : int;
  mutable raddr : int32;
  rcv_q : (int32 * int * bytes) Queue.t; (* src ip, src port, payload *)
  mutable rcv_hiwat : int;
  mutable rcv_cc : int;
  mutable on_readable : unit -> unit;
  mutable dropped : int;
  mutable live : pcb Dlist.node option; (* node in the stack's [pcbs] *)
}

type t = {
  ip : Ip.t;
  pcbs : pcb Dlist.t; (* live pcbs, newest first *)
  port_refs : (int, int) Hashtbl.t; (* lport -> live pcbs bound to it *)
  (* O(1) demux, sharing the TCP scheme: exact 4-tuple key for connected
     pcbs, (0, 0, lport) for wildcard binds.  Rebuilt on bind, alloc,
     connect and detach — the only places the key changes. *)
  pcb_hash : (int32 * int * int, pcb) Hashtbl.t;
  mutable next_ephemeral : int;
  mutable badsum : int;    (* datagrams dropped on checksum failure *)
  mutable noport : int;    (* datagrams with no listening pcb *)
  mutable fulldrops : int; (* datagrams dropped at a full socket buffer *)
  mutable unreach_sent : int; (* demux misses answered with ICMP port unreachable *)
  mutable icmp_ratelimited : int; (* unreachables suppressed by the token bucket *)
  mutable nomem_drops : int; (* datagrams dropped for want of an mbuf *)
  (* token bucket for ICMP errors (Cost.config.icmp_ratelimit) *)
  mutable icmp_tokens : float;
  mutable icmp_tok_ts : int;
}

let port_users t port = Option.value (Hashtbl.find_opt t.port_refs port) ~default:0

let ref_port t port = Hashtbl.replace t.port_refs port (port_users t port + 1)

let unref_port t port =
  match port_users t port with
  | 1 -> Hashtbl.remove t.port_refs port
  | n -> Hashtbl.replace t.port_refs port (n - 1)

(* Rebind [pcb], keeping the per-port use counts exact for live pcbs. *)
let set_lport t pcb port =
  if pcb.live <> None then begin
    unref_port t pcb.lport;
    ref_port t port
  end;
  pcb.lport <- port

let hash_key p = (p.raddr, p.rport, p.lport)

let hash_add t p = if p.lport <> 0 then Hashtbl.replace t.pcb_hash (hash_key p) p

let hash_remove t p =
  match Hashtbl.find_opt t.pcb_hash (hash_key p) with
  | Some x when x == p -> Hashtbl.remove t.pcb_hash (hash_key p)
  | _ -> ()

(* A UDP scan must not become an amplification/CPU sink: ICMP errors pass
   a token bucket refilled at Cost.config.icmp_ratelimit per second
   (depth = rate; 0 = unlimited, the donor behavior). *)
let icmp_allowed t =
  let rate = Cost.config.icmp_ratelimit in
  if rate = 0 then true
  else begin
    let now = Machine.now t.ip.Ip.machine in
    let elapsed = now - t.icmp_tok_ts in
    t.icmp_tok_ts <- now;
    t.icmp_tokens <-
      Float.min (float_of_int rate)
        (t.icmp_tokens +. (float_of_int rate *. float_of_int elapsed /. 1e9));
    if t.icmp_tokens >= 1.0 then begin
      t.icmp_tokens <- t.icmp_tokens -. 1.0;
      true
    end
    else begin
      t.icmp_ratelimited <- t.icmp_ratelimited + 1;
      false
    end
  end

(* Demux: the exact 4-tuple first, then the wildcard bind. *)
let lookup t ~src ~sport ~dport =
  match Hashtbl.find_opt t.pcb_hash (src, sport, dport) with
  | Some _ as r ->
      Cost.count_pcb_cache_hit ();
      r
  | None ->
      Cost.count_pcb_cache_miss ();
      Hashtbl.find_opt t.pcb_hash (0l, 0, dport)

let attach ip =
  let t =
    { ip; pcbs = Dlist.create (); port_refs = Hashtbl.create 16;
      pcb_hash = Hashtbl.create 16; next_ephemeral = 49152;
      badsum = 0; noport = 0; fulldrops = 0; unreach_sent = 0;
      icmp_ratelimited = 0; nomem_drops = 0;
      icmp_tokens = float_of_int Cost.config.icmp_ratelimit; icmp_tok_ts = 0 }
  in
  let input ~src ~dst:_ m =
    (* Consumes m: the payload is copied out, so the chain is always freed. *)
    if Mbuf.m_length m < udp_hlen then Mbuf.m_freem m
    else begin
      let m = Mbuf.m_pullup m udp_hlen in
      let d = m.Mbuf.m_data and o = m.Mbuf.m_off in
      let sport = Bytes.get_uint16_be d o in
      let dport = Bytes.get_uint16_be d (o + 2) in
      let ulen = Bytes.get_uint16_be d (o + 4) in
      let csum = Bytes.get_uint16_be d (o + 6) in
      if ulen <= Mbuf.m_length m then begin
        let sum_ok =
          csum = 0
          || In_cksum.cksum_chain m ~off:0 ~len:ulen
               ~init:(In_cksum.pseudo_header ~src ~dst:t.ip.Ip.ifp.Netif.if_addr
                        ~proto:Ip.proto_udp ~len:ulen)
             = 0
        in
        if not sum_ok then t.badsum <- t.badsum + 1
        else begin
          match lookup t ~src ~sport ~dport with
          | None ->
              (* No listener: answer with ICMP port unreachable (the
                 donor's icmp_error), quoting the UDP header so the
                 sender can match the error to a socket. *)
              t.noport <- t.noport + 1;
              if icmp_allowed t then begin
                t.unreach_sent <- t.unreach_sent + 1;
                Icmp.send_port_unreach t.ip ~dst:src
                  ~payload:(Mbuf.m_copydata m ~off:0 ~len:(min udp_hlen (Mbuf.m_length m)))
              end
          | Some p ->
              let len = ulen - udp_hlen in
              if p.rcv_cc + len > p.rcv_hiwat then begin
                p.dropped <- p.dropped + 1;
                t.fulldrops <- t.fulldrops + 1
              end
              else begin
                let payload = Mbuf.m_copydata m ~off:udp_hlen ~len in
                Queue.add (src, sport, payload) p.rcv_q;
                p.rcv_cc <- p.rcv_cc + len;
                p.on_readable ()
              end
        end
      end;
      Mbuf.m_freem m
    end
  in
  let input ~src ~dst m =
    try input ~src ~dst m
    with Memfault.Nomem ->
      (* Allocation failures on the receive path (header pullup, the ICMP
         reply) degrade to a counted drop, never a crash. *)
      t.nomem_drops <- t.nomem_drops + 1
  in
  Ip.set_proto ip ~proto:Ip.proto_udp (fun ~src ~dst m -> input ~src ~dst m);
  t

let alloc_port t =
  let rec pick p = if Hashtbl.mem t.port_refs p then pick (p + 1) else p in
  let p = pick t.next_ephemeral in
  t.next_ephemeral <- p + 1;
  p

let create_pcb t =
  let p =
    { lport = 0; laddr = 0l; rport = 0; raddr = 0l; rcv_q = Queue.create ();
      rcv_hiwat = 64 * 1024; rcv_cc = 0; on_readable = (fun () -> ()); dropped = 0;
      live = None }
  in
  p.live <- Some (Dlist.push_front t.pcbs p);
  ref_port t p.lport;
  p

let bind t pcb ~port =
  let own = if pcb.live <> None && pcb.lport = port then 1 else 0 in
  if port_users t port > own then Result.Error Error.Addrinuse
  else begin
    hash_remove t pcb;
    set_lport t pcb port;
    pcb.laddr <- t.ip.Ip.ifp.Netif.if_addr;
    hash_add t pcb;
    Ok ()
  end

(* udp_connect: fix the remote end, so datagrams from it demux by the
   exact 4-tuple and no others reach [pcb].  Binds an ephemeral port
   first when the pcb has none. *)
let connect t pcb ~dst ~dport =
  hash_remove t pcb;
  if pcb.lport = 0 then set_lport t pcb (alloc_port t);
  pcb.raddr <- dst;
  pcb.rport <- dport;
  hash_add t pcb

let detach t pcb =
  (match pcb.live with
  | Some n ->
      Dlist.remove n;
      pcb.live <- None;
      unref_port t pcb.lport
  | None -> ());
  hash_remove t pcb

let rec output t pcb ~dst ~dport ~src ~src_pos ~len =
  if pcb.lport = 0 then begin
    set_lport t pcb (alloc_port t);
    hash_add t pcb
  end;
  try output_dgram t pcb ~dst ~dport ~src ~src_pos ~len
  with Memfault.Nomem ->
    (* ENOBUFS to the caller: the socket layer surfaces it as an error
       result, the application's retry is the backpressure loop. *)
    t.nomem_drops <- t.nomem_drops + 1;
    raise (Error.Error Error.Nomem)

and output_dgram t pcb ~dst ~dport ~src ~src_pos ~len =
  let m = Mbuf.m_gethdr () in
  let off = Mbuf.m_put m udp_hlen in
  let d = m.Mbuf.m_data in
  let ulen = udp_hlen + len in
  Bytes.set_uint16_be d off pcb.lport;
  Bytes.set_uint16_be d (off + 2) dport;
  Bytes.set_uint16_be d (off + 4) ulen;
  Bytes.set_uint16_be d (off + 6) 0;
  if len > 0 then Mbuf.m_append m ~src ~src_pos ~len;
  let laddr = t.ip.Ip.ifp.Netif.if_addr in
  let sum =
    In_cksum.cksum_chain m ~off:0 ~len:ulen
      ~init:(In_cksum.pseudo_header ~src:laddr ~dst ~proto:Ip.proto_udp ~len:ulen)
  in
  Bytes.set_uint16_be d (off + 6) (if sum = 0 then 0xffff else sum);
  Ip.output t.ip ~proto:Ip.proto_udp ~src:laddr ~dst m

(* Take one datagram off the receive queue. *)
let recv pcb =
  match Queue.take_opt pcb.rcv_q with
  | None -> None
  | Some ((_, _, payload) as dgram) ->
      pcb.rcv_cc <- pcb.rcv_cc - Bytes.length payload;
      Some dgram
