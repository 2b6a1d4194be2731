(* A blkio over plain memory — the RAM-disk every kit needs for tests and
   for clients that want a file system without a disk driver.  Charges
   copies like any other block device, but has no mechanical latency.

   The store is an array of 4 KB pages, as Linux's brd keeps it, so one
   whole page can be lent out in place through the blkmap face: a client
   that caches pages (the buffer cache) adopts the device's page instead
   of reading a copy of it.  A device whose size is not a multiple of the
   page size has a short last page, which is never lent. *)

let page_size = 4096

let make ?(block_size = 512) ~bytes () : Io_if.blkio =
  let pages =
    Array.init
      ((bytes + page_size - 1) / page_size)
      (fun i -> Bytes.make (min page_size (bytes - (i * page_size))) '\000')
  in
  let clamp offset amount = max 0 (min amount (bytes - offset)) in
  (* Move [n] bytes between [buf] at [pos] and the store at [offset], one
     page at a time. *)
  let rec move ~into_store buf pos offset n =
    if n > 0 then begin
      let page = pages.(offset / page_size) and poff = offset mod page_size in
      let k = min n (page_size - poff) in
      if into_store then Bytes.blit buf pos page poff k else Bytes.blit page poff buf pos k;
      move ~into_store buf (pos + k) (offset + k) (n - k)
    end
  in
  let transfer ~into_store ~buf ~pos ~offset ~amount =
    if offset < 0 then Result.Error Error.Inval
    else begin
      let n = clamp offset amount in
      Cost.charge_copy n;
      move ~into_store buf pos offset n;
      Ok n
    end
  in
  let rec view () =
    { Io_if.bio_unknown = unknown ();
      getblocksize = (fun () -> block_size);
      bio_read = transfer ~into_store:false;
      bio_write = transfer ~into_store:true;
      getsize = (fun () -> bytes);
      setsize = (fun _ -> Result.Error Error.Notsup) }
  and map () =
    { Io_if.bm_unknown = unknown ();
      bm_map =
        (fun ~offset ~amount ->
          if offset >= 0 && offset mod page_size = 0 && amount = page_size
             && offset + amount <= bytes
          then Some pages.(offset / page_size)
          else None) }
  and obj =
    lazy
      (Com.create (fun _ ->
           [ Iid.B (Io_if.blkio_iid, fun () -> view ()); Iid.B (Io_if.blkmap_iid, map) ]))
  and unknown () = Lazy.force obj in
  view ()
