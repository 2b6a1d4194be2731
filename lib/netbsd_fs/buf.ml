(* ENCAPSULATED LEGACY CODE — the 4.4BSD buffer cache (vfs_bio.c).
 *
 * bread/bwrite/bdwrite/brelse over a block device, with an LRU of clean
 * buffers, a hash on block number, and delayed writes flushed by sync.
 * The device below is reached through the OSKit blkio interface the glue
 * was handed at mount time — the run-time binding of Section 4.2.2.
 *
 * Pinning (PR 10): a buffer's [b_refs] doubles as its pin count.  The
 * sendfile path maps cache blocks straight into socket buffers, so a
 * block may stay referenced long after the fs call that faulted it in
 * returns — until the last transmitted byte is acknowledged.  Eviction
 * therefore (a) never touches a buffer with [b_refs > 0], and (b) picks
 * the true least-recently-used unreferenced buffer (oldest [b_lru_tick],
 * not hash-iteration order).  If everything is pinned the cache grows
 * past [max_bufs], as BSD's does under wired pages; once the pins drain,
 * the next miss evicts until the cache is back under the limit.
 *
 * Direct-mapped devices: a device whose bytes already live in memory (a
 * RAM disk) may export the blkmap face.  Its verdict is taken once per
 * binding, in [create].  A miss on such a device adopts the device's own
 * page as [b_data] — no buffer to allocate, nothing to read, nothing to
 * charge — and a store into the buffer is a store to the device, so
 * writing the buffer back is a no-op.  Every other device, and every
 * range the face refuses, keeps the allocate-and-copy path.
 *)

type buf = {
  b_blkno : int;
  b_data : bytes;
  b_mapped : bool; (* b_data is the device's own page *)
  mutable b_dirty : bool;
  mutable b_refs : int;
  mutable b_lru_tick : int;
}

type t = {
  dev : Io_if.blkio;
  map : Io_if.blkmap option; (* the device's direct-access face, if any *)
  bsize : int;
  cache : (int, buf) Hashtbl.t;
  max_bufs : int;
  mutable tick : int;
  mutable reads : int; (* device reads actually issued *)
  mutable writes : int;
  mutable hits : int;
  mutable misses : int; (* lookups that had to fault the block in *)
  mutable evictions : int; (* buffers pushed out under pressure *)
  mutable pins : int; (* sendfile pins taken (cumulative) *)
  mutable unpins : int; (* sendfile pins released (cumulative) *)
  mutable bad_unpins : int; (* unpins of a buffer nobody held: double releases *)
  mutable mapped : int; (* misses served by adopting the device's page *)
  mutable map_refused : int; (* misses the face refused: copy path taken *)
}

(* The face's reference is held for the life of the binding. *)
let create ?(max_bufs = 64) ~bsize dev =
  let map = Result.to_option (Com.query dev.Io_if.bio_unknown Io_if.blkmap_iid) in
  { dev; map; bsize; cache = Hashtbl.create 64; max_bufs; tick = 0; reads = 0; writes = 0;
    hits = 0; misses = 0; evictions = 0; pins = 0; unpins = 0; bad_unpins = 0; mapped = 0; map_refused = 0 }

let device_read t blkno data =
  t.reads <- t.reads + 1;
  match
    t.dev.Io_if.bio_read ~buf:data ~pos:0 ~offset:(blkno * t.bsize) ~amount:t.bsize
  with
  | Ok n when n = t.bsize -> ()
  | Ok _ -> Error.fail Error.Io
  | Result.Error e -> Error.fail e

let device_write t blkno data =
  t.writes <- t.writes + 1;
  match
    t.dev.Io_if.bio_write ~buf:data ~pos:0 ~offset:(blkno * t.bsize) ~amount:t.bsize
  with
  | Ok n when n = t.bsize -> ()
  | Ok _ -> Error.fail Error.Io
  | Result.Error e -> Error.fail e

(* Write a buffer back and mark it clean.  A mapped buffer is already on
   the device. *)
let flush t b =
  if not b.b_mapped then device_write t b.b_blkno b.b_data;
  b.b_dirty <- false

(* Evict the least recently used unreferenced buffer (writing it out first
   if it is dirty — BSD pushes delayed writes under pressure).  Referenced
   buffers — including sendfile pins — are never victims: their bytes may
   be queued for DMA right now.  Returns whether it evicted. *)
let evict_one t =
  let victim = ref None in
  Hashtbl.iter
    (fun _ b ->
      if b.b_refs = 0 then
        match !victim with
        | Some v when v.b_lru_tick <= b.b_lru_tick -> ()
        | _ -> victim := Some b)
    t.cache;
  match !victim with
  | None -> false (* everything referenced: let the cache grow, as BSD does *)
  | Some b ->
      if b.b_dirty then flush t b;
      Hashtbl.remove t.cache b.b_blkno;
      t.evictions <- t.evictions + 1;
      true

(* The device's own page for [blkno], when the device lends it. *)
let map_page t blkno =
  match t.map with
  | None -> None
  | Some m -> (
      match m.Io_if.bm_map ~offset:(blkno * t.bsize) ~amount:t.bsize with
      | Some _ as page ->
          t.mapped <- t.mapped + 1;
          page
      | None ->
          t.map_refused <- t.map_refused + 1;
          None)

let getblk t blkno ~fill =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.cache blkno with
  | Some b ->
      t.hits <- t.hits + 1;
      Cost.count_bufcache_hit ();
      b.b_refs <- b.b_refs + 1;
      b.b_lru_tick <- t.tick;
      b
  | None ->
      t.misses <- t.misses + 1;
      Cost.count_bufcache_miss ();
      while Hashtbl.length t.cache >= t.max_bufs && evict_one t do () done;
      let data, mapped =
        match map_page t blkno with
        | Some page -> page, true
        | None ->
            let data = Bytes.make t.bsize '\000' in
            if fill then device_read t blkno data;
            data, false
      in
      let b =
        { b_blkno = blkno; b_data = data; b_mapped = mapped; b_dirty = false; b_refs = 1;
          b_lru_tick = t.tick }
      in
      Hashtbl.replace t.cache blkno b;
      b

(* bread: a referenced buffer with the block's contents. *)
let bread t blkno = getblk t blkno ~fill:true

(* getblk-without-read: caller will overwrite the whole block (so an
   adopted page needs no zero fill either). *)
let getblk_nofill t blkno = getblk t blkno ~fill:false

let brelse b = if b.b_refs > 0 then b.b_refs <- b.b_refs - 1

(* ---- sendfile pins ----
 *
 * The same reference count as bread/brelse, but accounted separately so
 * the cache stats show how much of the working set is wired by in-flight
 * transmits.  A mapping typically starts from a [bread] reference and
 * converts it with [pin_held]; every additional consumer takes [pin] and
 * each pin comes back through [unpin]. *)

let pin t b =
  b.b_refs <- b.b_refs + 1;
  t.pins <- t.pins + 1

(* Adopt an already-held reference (e.g. bread's) as a pin: counts the pin
   without re-referencing. *)
let pin_held t (_ : buf) = t.pins <- t.pins + 1

(* Unpinning a buffer nobody holds is a double release: the count stays
   clamped at 0, as in [brelse], and the fault is counted. *)
let unpin t b =
  if b.b_refs > 0 then b.b_refs <- b.b_refs - 1 else t.bad_unpins <- t.bad_unpins + 1;
  t.unpins <- t.unpins + 1

(* bdwrite: mark dirty, write later. *)
let bdwrite b = b.b_dirty <- true

(* bwrite: write through now. *)
let bwrite t b = flush t b

let sync t =
  let dirty = Hashtbl.fold (fun _ b acc -> if b.b_dirty then b :: acc else acc) t.cache [] in
  List.iter (flush t) (List.sort (fun a b -> Int.compare a.b_blkno b.b_blkno) dirty)

let stats t = t.reads, t.writes, t.hits

type cache_stats = {
  cs_reads : int;
  cs_writes : int;
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
  cs_pins : int;
  cs_unpins : int;
  cs_bad_unpins : int; (* unpins of an unreferenced buffer (double releases) *)
  cs_mapped : int; (* misses served by adopting the device's page *)
  cs_map_refused : int; (* misses the device's face refused (copy path) *)
  cs_cached : int; (* buffers currently resident *)
  cs_pinned : int; (* buffers currently referenced (refs > 0) *)
}

let cache_stats t =
  let pinned = Hashtbl.fold (fun _ b acc -> if b.b_refs > 0 then acc + 1 else acc) t.cache 0 in
  { cs_reads = t.reads; cs_writes = t.writes; cs_hits = t.hits; cs_misses = t.misses;
    cs_evictions = t.evictions; cs_pins = t.pins; cs_unpins = t.unpins;
    cs_bad_unpins = t.bad_unpins; cs_mapped = t.mapped;
    cs_map_refused = t.map_refused; cs_cached = Hashtbl.length t.cache; cs_pinned = pinned }
