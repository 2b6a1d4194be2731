(* ENCAPSULATED LEGACY CODE — Linux 2.0.29 style (Section 4.7).
 *
 * This module reproduces Linux's internal network packet buffer, the
 * sk_buff, whose "implementation details are thoroughly known throughout"
 * the driver code (Section 4.7.3): a single contiguous data area with
 * headroom and tailroom, adjusted with reserve/put/push/pull.  It is used
 * by the encapsulated drivers in this library and by the Linux inet stack
 * baseline; nothing outside those components and their glue may see it.
 * The glue code translates between sk_buffs and the OSKit's bufio
 * interface without copying whenever the layout allows.
 *
 * Allocation is pooled by power-of-two size class, as the donor's
 * kmalloc bucket scheme behaves in steady state: alloc_skb rounds the
 * request up to a class and recycles retired buffers of that class, so a
 * running stack allocates nothing per packet.  kfree_skb (skb_free here)
 * retires the storage; wrapped buffers (skb_wrap, the glue's fake skbuffs)
 * are foreign and never recycled.
 *
 * (In the C OSKit this file would live under linux/src/, byte-identical to
 * the donor tree; here "unmodified" means we preserve the donor's
 * abstractions and API shape.)
 *)

type sk_buff = {
  skb_data : bytes; (* the contiguous allocation *)
  mutable head : int; (* start of valid data within skb_data *)
  mutable len : int; (* bytes of valid data *)
  mutable protocol : int; (* ethertype, set by eth_type_trans *)
  mutable dev_name : string;
  skb_pooled : bool; (* storage owned by the size-class pools below *)
  mutable skb_freed : bool;
  mutable link_ready : bool; (* ether header built: safe to hand to a NIC *)
  mutable skb_frags : (bytes * int * int) list;
      (* Nonlinear form (skb_shinfo frags, in the donor's later trees): when
         non-empty, the buffer's bytes are this ordered iovec of loaned
         (backing, off, len) fragments, [skb_data] holds nothing, and [len]
         is the fragments' total.  Only scatter-gather-aware consumers
         (hard_start_xmit's gather DMA) accept one; everything else calls
         [skb_linearize] first. *)
  mutable ip_summed : int;
      (* Transmit: [checksum_none], the stack checksummed the packet;
         [checksum_partial], the device writes the transport checksum.
         Receive: [checksum_unnecessary], the device verified it. *)
  mutable gso_size : int;
      (* skb_shinfo(skb)->gso_size: > 0 asks the device to cut the TCP
         payload into segments of this size (NETIF_F_TSO); 0 otherwise. *)
}

let checksum_none = 0
let checksum_unnecessary = 1
let checksum_partial = 3

exception Skb_over_panic
(* Linux calls panic(); an exception is our machine check. *)

(* Power-of-two size classes, 64 B .. 4 KB — a full Ethernet frame plus the
   stack's slack fits in the 2 KB class. *)
let min_class_bits = 6
let max_class_bits = 12

let pools =
  Array.init
    (max_class_bits - min_class_bits + 1)
    (fun i -> Bpool.create ~size:(1 lsl (min_class_bits + i)) ())

let class_of_size size =
  let rec go bits = if 1 lsl bits >= size then bits else go (bits + 1) in
  go min_class_bits

let alloc_skb size =
  if size <= 1 lsl max_class_bits then
    let pool = pools.(class_of_size size - min_class_bits) in
    { skb_data = Bpool.get pool; head = 0; len = 0; protocol = 0; dev_name = "";
      skb_pooled = true; skb_freed = false; link_ready = false; skb_frags = [];
      ip_summed = checksum_none; gso_size = 0 }
  else begin
    Cost.charge_alloc ();
    { skb_data = Bytes.create size; head = 0; len = 0; protocol = 0; dev_name = "";
      skb_pooled = false; skb_freed = false; link_ready = false; skb_frags = [];
      ip_summed = checksum_none; gso_size = 0 }
  end

(* Wrap an existing buffer without copying (used by the glue's "fake
   skbuff" trick, Section 4.7.3, and by DMA completion). *)
let skb_wrap data =
  { skb_data = data; head = 0; len = Bytes.length data; protocol = 0; dev_name = "";
    skb_pooled = false; skb_freed = false; link_ready = false; skb_frags = [];
    ip_summed = checksum_none; gso_size = 0 }

(* Wrap an iovec of loaned fragments as a nonlinear sk_buff — no copy, no
   pool storage.  The fragments stay the lender's; they must outlive the
   (synchronous) transmit this buffer is built for. *)
let skb_of_frags frags =
  let frags = List.filter (fun (_, _, len) -> len > 0) frags in
  let total = List.fold_left (fun a (_, _, len) -> a + len) 0 frags in
  { skb_data = Bytes.empty; head = 0; len = total; protocol = 0; dev_name = "";
    skb_pooled = false; skb_freed = false; link_ready = false; skb_frags = frags;
    ip_summed = checksum_none; gso_size = 0 }

let skb_is_nonlinear skb = skb.skb_frags <> []

(* The buffer as an iovec: its loaned fragments, or its one linear span. *)
let skb_fragments skb =
  if skb_is_nonlinear skb then skb.skb_frags
  else [ (skb.skb_data, skb.head, skb.len) ]

(* Make the data contiguous for a consumer that needs it that way: a real
   gather copy, charged.  Linear buffers pass through untouched, so calling
   this on the common path costs nothing. *)
let skb_linearize skb =
  if not (skb_is_nonlinear skb) then skb
  else begin
    if skb.skb_freed then invalid_arg "skb_linearize: freed";
    let lin = alloc_skb skb.len in
    Cost.charge_copy skb.len;
    let at = ref 0 in
    List.iter
      (fun (data, off, len) ->
        Bytes.blit data off lin.skb_data !at len;
        at := !at + len)
      skb.skb_frags;
    lin.len <- skb.len;
    lin.protocol <- skb.protocol;
    lin.dev_name <- skb.dev_name;
    lin.link_ready <- skb.link_ready;
    lin.ip_summed <- skb.ip_summed;
    lin.gso_size <- skb.gso_size;
    lin
  end

(* kfree_skb: retire the buffer to its size-class pool.  Foreign (wrapped)
   storage is the lender's; only the bookkeeping applies. *)
let skb_free skb =
  if skb.skb_freed then invalid_arg "skb_free: double free";
  skb.skb_freed <- true;
  if skb.skb_pooled then
    Bpool.put pools.(class_of_size (Bytes.length skb.skb_data) - min_class_bits)
      skb.skb_data

(* Drop every cached buffer and zero the pool counters: independent
   simulations in one process must start from a cold cache or virtual
   times drift between otherwise identical runs. *)
let pool_reset () =
  Array.iter
    (fun p ->
      Bpool.drain p;
      Bpool.reset_stats p)
    pools

let skb_headroom skb = skb.head

let skb_tailroom skb =
  if skb_is_nonlinear skb then 0
  else Bytes.length skb.skb_data - skb.head - skb.len

let skb_reserve skb n =
  if skb.len <> 0 || n > skb_tailroom skb then raise Skb_over_panic;
  skb.head <- skb.head + n

(* Append n bytes; returns the offset (within skb_data) of the new area. *)
let skb_put skb n =
  if n > skb_tailroom skb then raise Skb_over_panic;
  let at = skb.head + skb.len in
  skb.len <- skb.len + n;
  at

(* Prepend n bytes; returns the new start offset. *)
let skb_push skb n =
  if n > skb.head then raise Skb_over_panic;
  skb.head <- skb.head - n;
  skb.len <- skb.len + n;
  skb.head

(* Drop n bytes from the front; returns the new start offset. *)
let skb_pull skb n =
  if n > skb.len then raise Skb_over_panic;
  skb.head <- skb.head + n;
  skb.len <- skb.len - n;
  skb.head

let skb_trim skb n = if n < skb.len then skb.len <- n

(* Copy out the valid data (costed: this is a real memcpy). *)
let skb_copy_out skb =
  Cost.charge_copy skb.len;
  Bytes.sub skb.skb_data skb.head skb.len

(* Copy user/foreign data into the tail (memcpy_fromfs in the donor). *)
let skb_copy_in skb src src_pos n =
  let at = skb_put skb n in
  Cost.charge_copy n;
  Bytes.blit src src_pos skb.skb_data at n
