(* ENCAPSULATED LEGACY CODE — ip_input.c / ip_output.c.
 *
 * IPv4 with header checksum, fragmentation on output when the datagram
 * exceeds the interface MTU, and reassembly on input (ipq queues keyed by
 * (src, dst, id, proto), dropped after a timeout as in the donor).
 * Transport protocols register input handlers; locally-addressed output is
 * looped back above the interface layer.
 *)

let ip_hlen = 20
let ip_maxpacket = 65535
let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17
let default_ttl = 64
let frag_ttl_ns = 30_000_000_000 (* 30 s reassembly lifetime *)

type frag = { frag_off : int; frag_more : bool; frag_data : Mbuf.mbuf }

type reass_q = {
  key : int32 * int32 * int * int; (* src, dst, id, proto *)
  mutable frags : frag list;
  mutable expires : int;
}

type t = {
  ifp : Netif.ifnet;
  arp : Arp.t;
  machine : Machine.t;
  mutable ip_id : int;
  mutable protos : (int * (src:int32 -> dst:int32 -> Mbuf.mbuf -> unit)) list;
  mutable reass : reass_q list;
  mutable ipackets : int;
  mutable opackets : int;
  mutable ofragments : int;
  mutable reassembled : int;
  mutable badsum : int;
  mutable noroute : int;       (* output dropped: destination off-subnet *)
  mutable reass_expired : int; (* fragments freed past the 30 s lifetime *)
  mutable arp_drops : int;     (* packets freed when ARP gave up on them *)
  mutable nomem_drops : int;   (* input datagrams dropped for want of an mbuf *)
  mutable tso_drops : int;     (* TSO packets that reached the fragmenter *)
}

let put32 = Arp.put32
let get32 = Arp.get32

let set_proto t ~proto handler =
  t.protos <- (proto, handler) :: List.remove_assoc proto t.protos

(* Build the 20-byte header in front of [m] and emit one (possibly
   already-fragmented) IP packet. *)
let emit t m ~proto ~src ~dst ~ttl ~id ~frag_off ~more_frags =
  let m = Mbuf.m_prepend m ip_hlen in
  let d = m.Mbuf.m_data and o = m.Mbuf.m_off in
  let total = Mbuf.m_length m in
  Bytes.set d o '\x45';
  Bytes.set d (o + 1) '\000';
  Bytes.set_uint16_be d (o + 2) total;
  Bytes.set_uint16_be d (o + 4) id;
  Bytes.set_uint16_be d (o + 6) ((if more_frags then 0x2000 else 0) lor (frag_off lsr 3));
  Bytes.set d (o + 8) (Char.chr ttl);
  Bytes.set d (o + 9) (Char.chr proto);
  Bytes.set_uint16_be d (o + 10) 0;
  put32 d (o + 12) src;
  put32 d (o + 16) dst;
  let sum = In_cksum.cksum_bytes d ~off:o ~len:ip_hlen in
  Bytes.set_uint16_be d (o + 10) sum;
  t.opackets <- t.opackets + 1;
  (* Route: same subnet -> ARP; otherwise no route in this little world.
     Both failure paths count and free rather than raise — emit runs from
     timer events (TCP retransmit), where an exception would take down the
     whole simulation, not just this packet. *)
  if Netif.same_subnet t.ifp dst then
    Arp.resolve t.arp dst
      ~on_drop:(fun () ->
        t.arp_drops <- t.arp_drops + 1;
        Mbuf.m_freem m)
      (fun mac ->
        Netif.ether_output t.ifp m ~dst_mac:mac ~ethertype:Netif.ethertype_ip)
  else begin
    t.noroute <- t.noroute + 1;
    Mbuf.m_freem m
  end

(* in_delayed_cksum: finish in software a TCP checksum the stack left to
   the card, for a packet that will not reach one whole (looped back, or
   cut by the fragmenter).  th_sum holds the pseudo-header sum without the
   length; clear it and sum the segment over the full pseudo-header. *)
let delayed_cksum m ~src ~dst =
  match m.Mbuf.m_csum with
  | Mbuf.Csum_none | Mbuf.Csum_rx_valid -> ()
  | Mbuf.Csum_tcp | Mbuf.Csum_tso _ ->
      m.Mbuf.m_csum <- Mbuf.Csum_none;
      let d = m.Mbuf.m_data and o = m.Mbuf.m_off in
      let total = Mbuf.m_length m in
      Bytes.set_uint16_be d (o + 16) 0;
      let sum =
        In_cksum.cksum_chain m ~off:0 ~len:total
          ~init:(In_cksum.pseudo_header ~src ~dst ~proto:proto_tcp ~len:total)
      in
      Bytes.set_uint16_be d (o + 16) (if sum = 0 then 0xffff else sum)

let rec output t ~proto ~src ~dst ?(ttl = default_ttl) m =
  if Int32.equal dst t.ifp.Netif.if_addr then begin
    (* Local delivery: loop straight back up. *)
    delayed_cksum m ~src ~dst;
    match List.assoc_opt proto t.protos with
    | Some input ->
        t.ipackets <- t.ipackets + 1;
        input ~src ~dst m
    | None -> Mbuf.m_freem m
  end
  else begin
    (* A TSO packet takes one id per wire frame: the card numbers its
       segments id, id + 1, ... *)
    let id = t.ip_id in
    t.ip_id <- (t.ip_id + Mbuf.m_wire_frames m ~th:0) land 0xffff;
    let payload = Mbuf.m_length m in
    let max_payload = (t.ifp.Netif.if_mtu - ip_hlen) land lnot 7 in
    (* The card cuts a TSO packet into TCP header + segsz payload frames. *)
    let tso = Mbuf.m_tso m ~th:0 in
    let frame_payload =
      match tso with Some (thlen, segsz) -> min payload (thlen + segsz) | None -> payload
    in
    if frame_payload + ip_hlen <= t.ifp.Netif.if_mtu then
      emit t m ~proto ~src ~dst ~ttl ~id ~frag_off:0 ~more_frags:false
    else if Option.is_some tso then begin
      (* The card, not the fragmenter, cuts a TSO packet; one whose
         segments would not fit the MTU is dropped and counted. *)
      t.tso_drops <- t.tso_drops + 1;
      Mbuf.m_freem m
    end
    else begin
      delayed_cksum m ~src ~dst;
      (* Fragment: each piece carries a multiple of 8 bytes except the
         last. *)
      let rec pieces off =
        if off < payload then begin
          let n = min max_payload (payload - off) in
          let more = off + n < payload in
          let piece = Mbuf.m_copym m ~off ~len:n in
          t.ofragments <- t.ofragments + 1;
          emit t piece ~proto ~src ~dst ~ttl ~id ~frag_off:off ~more_frags:more;
          pieces (off + n)
        end
      in
      pieces 0;
      (* The pieces share the original's cluster storage; dropping the
         original just decrements those references. *)
      Mbuf.m_freem m
    end
  end

and input t m =
  if Mbuf.m_length m < ip_hlen then Mbuf.m_freem m
  else begin
    let m = Mbuf.m_pullup m ip_hlen in
    let d = m.Mbuf.m_data and o = m.Mbuf.m_off in
    let ihl = (Char.code (Bytes.get d o) land 0xf) * 4 in
    let total = Bytes.get_uint16_be d (o + 2) in
    let id = Bytes.get_uint16_be d (o + 4) in
    let fword = Bytes.get_uint16_be d (o + 6) in
    let proto = Char.code (Bytes.get d (o + 9)) in
    let src = get32 d (o + 12) and dst = get32 d (o + 16) in
    if In_cksum.cksum_bytes d ~off:o ~len:ihl <> 0 then begin
      t.badsum <- t.badsum + 1;
      Mbuf.m_freem m
    end
    else if not (Int32.equal dst t.ifp.Netif.if_addr) then
      Mbuf.m_freem m (* not ours: drop *)
    else begin
      t.ipackets <- t.ipackets + 1;
      (* Trim link-layer padding beyond the IP total length. *)
      let excess = Mbuf.m_length m - total in
      if excess > 0 then Mbuf.m_adj m (-excess);
      Mbuf.m_adj m ihl;
      let more = fword land 0x2000 <> 0 in
      let frag_off = (fword land 0x1fff) lsl 3 in
      if (not more) && frag_off = 0 then deliver t ~proto ~src ~dst m
      else reass_insert t ~key:(src, dst, id, proto) ~frag_off ~more m
    end
  end

and deliver t ~proto ~src ~dst m =
  match List.assoc_opt proto t.protos with
  | Some input -> input ~src ~dst m
  | None -> Mbuf.m_freem m

and reass_insert t ~key ~frag_off ~more m =
  let now = Machine.now t.machine in
  let live, expired = List.partition (fun q -> q.expires > now) t.reass in
  List.iter
    (fun q ->
      List.iter
        (fun f ->
          t.reass_expired <- t.reass_expired + 1;
          Mbuf.m_freem f.frag_data)
        q.frags)
    expired;
  t.reass <- live;
  let q =
    match List.find_opt (fun q -> q.key = key) t.reass with
    | Some q -> q
    | None ->
        let q = { key; frags = []; expires = now + frag_ttl_ns } in
        t.reass <- q :: t.reass;
        q
  in
  q.frags <- { frag_off; frag_more = more; frag_data = m } :: q.frags;
  (* Complete when a no-more-fragments piece exists and the byte ranges
     cover [0, end) without gaps. *)
  let sorted = List.sort (fun a b -> Int.compare a.frag_off b.frag_off) q.frags in
  let rec covered expect = function
    | [] -> None
    | f :: rest ->
        if f.frag_off > expect then None
        else begin
          let e = f.frag_off + Mbuf.m_length f.frag_data in
          if f.frag_more then covered (max expect e) rest
          else if rest = [] then Some e
          else None
        end
  in
  match covered 0 sorted with
  | None -> ()
  | Some total ->
      t.reass <- List.filter (fun x -> x != q) t.reass;
      t.reassembled <- t.reassembled + 1;
      (* Splice the pieces into one chain (ranges may overlap; take the
         leading part of each). *)
      let buf = Bytes.create total in
      List.iter
        (fun f ->
          let len = min (Mbuf.m_length f.frag_data) (total - f.frag_off) in
          Mbuf.m_copy_into f.frag_data ~off:0 ~len ~dst:buf ~dst_pos:f.frag_off)
        sorted;
      List.iter (fun f -> Mbuf.m_freem f.frag_data) sorted;
      let whole = Mbuf.m_ext_wrap buf ~off:0 ~len:total in
      let src, dst, _, proto = key in
      deliver t ~proto ~src ~dst whole

let attach ifp arp machine =
  let t =
    { ifp; arp; machine; ip_id = 1; protos = []; reass = []; ipackets = 0; opackets = 0;
      ofragments = 0; reassembled = 0; badsum = 0; noroute = 0; reass_expired = 0;
      arp_drops = 0; nomem_drops = 0; tso_drops = 0 }
  in
  Netif.set_proto_input ifp ~ethertype:Netif.ethertype_ip
    (fun m ->
      (* The header pullup can fail under the allocation injector; count
         the drop here so it never reaches the driver as an exception. *)
      try input t m with Memfault.Nomem -> t.nomem_drops <- t.nomem_drops + 1);
  t
