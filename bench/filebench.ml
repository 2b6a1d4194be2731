(* filebench — the content-path experiment: HTTP/1.1 keep-alive +
   pipelined serving and the sendfile-style zero-copy buffer-cache→wire
   path, measured against the HTTP/1.0 close-per-request baseline.

   Three knobs vary (all default-off, so the calibrated tables never see
   them):

     http_keepalive  persistent connections; requests reuse one TCP
                     connection instead of paying connect/teardown each
     sendfile        200 bodies leave as pinned buffer-cache fragments
                     loaned to the socket (Io_if.filemap -> Io_if.sendv)
                     instead of being copied into the response
     sg_tx           the loaned fragments ride the scatter-gather
                     transmit glue to the NIC without flattening

   The stacks differ on purpose: the BSD-derived stack (native and under
   the OSKit glue) exports the sendv face — its mbufs alias foreign
   storage — while the Linux stack does not (contiguous sk_buffs cannot),
   so with the sendfile knob on, Linux rows show the counted copy
   fallback.  That is the paper's Section 5 copy asymmetry surfacing at
   the application layer.

   Working sets run smaller and larger than the 64-block (256 KB) buffer
   cache, so cache hit/miss and eviction behaviour shows up in the
   counters; bodies are position-and-file-dependent bytes so every
   delivered response is provably byte-exact. *)

type knobs = { k_keepalive : bool; k_sendfile : bool; k_sg : bool }

let knobs_name k =
  match k.k_keepalive, k.k_sendfile with
  | false, _ -> "http10"
  | true, false -> "keepalive"
  | true, true -> if k.k_sg then "ka+sendfile+sg" else "ka+sendfile"

let http10 = { k_keepalive = false; k_sendfile = false; k_sg = false }
let keepalive = { k_keepalive = true; k_sendfile = false; k_sg = false }
let ka_sendfile = { k_keepalive = true; k_sendfile = true; k_sg = true }

let backlog = 128

(* ---- the served working set: [files] files of [file_bytes], each with
   its own position-dependent pattern so responses cannot be confused ---- *)

let pattern ~file pos = ((pos * 131) + (file * 17)) land 0xff

let file_name i = Printf.sprintf "f%d.bin" i

type result = {
  r_config : Rig.config;
  r_mode : Rig.mode;
  r_knobs : knobs;
  r_clients : int;
  r_pipeline : int; (* client pipelining depth (1 = serial request/response) *)
  r_requests : int;
  r_files : int;
  r_file_bytes : int;
  r_duration_ms : float;
  r_rps : float;
  r_responses : int;
  r_reused : int;
  r_pipelined : int;
  r_idle_closed : int;
  r_capped : int;
  r_protocol_errors : int;
  r_mismatches : int;
  r_sendfile_bodies : int;
  r_sendfile_fallbacks : int;
  r_body_bytes_copied : int;  (* through the httpd copy path (keep-alive engine) *)
  r_copied_per_req : float;
  r_bufcache_hits : int;
  r_bufcache_misses : int;
  r_accepted : int;
  r_xmits_per_resp : float;  (* the server card's transmit requests per response *)
}

(* Parse "Content-Length: N" out of a response header block. *)
let content_length hdr =
  match Rig.index_of (String.lowercase_ascii hdr) "content-length:" with
  | None -> None
  | Some i -> (
      let rest = String.sub hdr (i + 15) (String.length hdr - i - 15) in
      let line =
        match String.index_opt rest '\r' with
        | Some j -> String.sub rest 0 j
        | None -> rest
      in
      int_of_string_opt (String.trim line))

(* One run: [clients] FreeBSD-native clients each issue [reqs_per_client]
   GETs round-robin over the working set.  With keep-alive on, each
   client holds ONE connection for all its requests and frames responses
   by Content-Length; with it off, every request pays a fresh
   connect/close and drains to EOF (the HTTP/1.0 discipline).
   [pipeline] (default 1) is the client's pipelining depth: bursts of
   that many requests go out back-to-back before the responses are read,
   in order — keep it within Cost.config.http_pipeline_max so the
   server's parse-ahead bound never throttles the reader. *)
let run ~config ~mode ~knobs ?(pipeline = 1) ~clients ~reqs_per_client ~files
    ~file_bytes () =
  Cost.with_config (fun c ->
      c.Cost.http_keepalive <- knobs.k_keepalive;
      c.Cost.sendfile <- knobs.k_sendfile;
      c.Cost.sg_tx <- knobs.k_sg)
  @@ fun () ->
  let tb = Rig.testbed () in
  let server = tb.Clientos.host_b and chost = tb.Clientos.host_a in
  let bodies =
    Array.init files (fun fi -> String.init file_bytes (fun i -> Char.chr (pattern ~file:fi i)))
  in
  (* 16 MB: big enough for the 128-file thrash working set (ninodes scales
     with the device, nblocks/8, and 4 MB leaves only 125 usable inodes). *)
  let root =
    Rig.make_root ~dev_bytes:(16 lsl 20)
      (List.init files (fun fi -> file_name fi, bodies.(fi)))
  in
  let sock, _ = Rig.server_sock config server in
  let cstack = Clientos.freebsd_host chost ~ip:Rig.client_ip ~mask:Rig.mask in
  let done_clients = ref 0 in
  let all_done () = !done_clients >= clients in
  let reactor = Reactor.create () in
  let server_stats =
    Rig.serve_httpd ~mode ~backlog ~reactor ~until:all_done server sock root
  in
  let mismatches = ref 0 in
  let t_start = ref max_int and t_end = ref 0 in
  let request fi v11 =
    if v11 then Printf.sprintf "GET /%s HTTP/1.1\r\nHost: b\r\n\r\n" (file_name fi)
    else Printf.sprintf "GET /%s HTTP/1.0\r\n\r\n" (file_name fi)
  in
  (* Close-per-request client: connect, send, drain to EOF, check. *)
  let do_request_10 ~record fi =
    let t0 = Machine.now chost.Clientos.machine in
    let s = Bsd_socket.tcp_socket cstack in
    (match Bsd_socket.so_connect s ~dst:Rig.server_ip ~dport:80 with
    | Error _ -> incr mismatches
    | Ok () ->
        Rig.send_string s (request fi false);
        if not (Rig.read_200 s ~expect:bodies.(fi)) then incr mismatches);
    ignore (Bsd_socket.so_close s);
    let t1 = Machine.now chost.Clientos.machine in
    if record then begin
      if t0 < !t_start then t_start := t0;
      if t1 > !t_end then t_end := t1
    end
  in
  (* Keep-alive client: one connection, [n] requests framed by
     Content-Length, every body byte-checked. *)
  let do_requests_11 ~record ~first_file n =
    let t0 = Machine.now chost.Clientos.machine in
    let s = Bsd_socket.tcp_socket cstack in
    (match Bsd_socket.so_connect s ~dst:Rig.server_ip ~dport:80 with
    | Error _ -> mismatches := !mismatches + n
    | Ok () ->
        let buf = Bytes.create 4096 in
        let acc = Buffer.create (file_bytes + 256) in
        let consumed = ref 0 in
        let rec fill need =
          if Buffer.length acc - !consumed >= need then true
          else
            match Bsd_socket.so_recv s ~buf ~pos:0 ~len:4096 with
            | Ok 0 | Error _ -> false
            | Ok got ->
                Buffer.add_subbytes acc buf 0 got;
                fill need
        in
        let avail () =
          String.sub (Buffer.contents acc) !consumed (Buffer.length acc - !consumed)
        in
        let rec hdr_end () =
          match Rig.index_of (avail ()) "\r\n\r\n" with
          | Some i -> Some i
          | None ->
              if fill (Buffer.length acc - !consumed + 1) then hdr_end () else None
        in
        let read_resp fi =
          match hdr_end () with
          | None -> incr mismatches
          | Some he -> (
              let hdr = String.sub (avail ()) 0 he in
              match content_length hdr with
              | None -> incr mismatches
              | Some len ->
                  if fill (he + 4 + len) then begin
                    let body = String.sub (avail ()) (he + 4) len in
                    let status_ok =
                      String.length hdr > 12 && String.sub hdr 9 3 = "200"
                    in
                    if not (status_ok && body = bodies.(fi)) then incr mismatches;
                    consumed := !consumed + he + 4 + len;
                    if Buffer.length acc - !consumed = 0 then begin
                      Buffer.clear acc;
                      consumed := 0
                    end
                  end
                  else incr mismatches)
        in
        let sent = ref 0 in
        while !sent < n do
          let burst = min pipeline (n - !sent) in
          (* One send for the whole burst: a pipelining client's requests
             ride a single segment instead of one apiece. *)
          let b = Buffer.create (burst * 48) in
          for k = 0 to burst - 1 do
            Buffer.add_string b (request ((first_file + !sent + k) mod files) true)
          done;
          Rig.send_string s (Buffer.contents b);
          for k = 0 to burst - 1 do
            read_resp ((first_file + !sent + k) mod files)
          done;
          sent := !sent + burst
        done);
    ignore (Bsd_socket.so_close s);
    let t1 = Machine.now chost.Clientos.machine in
    if record then begin
      if t0 < !t_start then t_start := t0;
      if t1 > !t_end then t_end := t1
    end
  in
  (* Warmup: resolves ARP on both machines and faults the working set
     into the buffer cache once, so the measured run is warm. *)
  let warm = ref false in
  Clientos.spawn chost ~name:"warmup" (fun () ->
      Kclock.sleep_ns 2_000_000;
      if knobs.k_keepalive then do_requests_11 ~record:false ~first_file:0 files
      else
        for fi = 0 to files - 1 do
          do_request_10 ~record:false fi
        done;
      warm := true);
  (* Counter baseline: everything after this point is the measured run
     plus nothing else (reset_globals cleared the rest). *)
  let c0_hits = ref 0 and c0_misses = ref 0 and x0 = ref 0 in
  for i = 0 to clients - 1 do
    Clientos.spawn chost ~name:(Printf.sprintf "c%d" i) (fun () ->
        Kclock.sleep_ns (4_000_000 + (i * 200));
        while not !warm do
          Kclock.sleep_ns 200_000
        done;
        if !c0_hits = 0 && !c0_misses = 0 then begin
          c0_hits := Cost.counters.Cost.bufcache_hits;
          c0_misses := Cost.counters.Cost.bufcache_misses;
          x0 := Nic.xmit_count server.Clientos.nic
        end;
        if knobs.k_keepalive then
          do_requests_11 ~record:true ~first_file:i reqs_per_client
        else
          for r = 0 to reqs_per_client - 1 do
            do_request_10 ~record:true ((i + r) mod files)
          done;
        incr done_clients)
  done;
  Clientos.run tb ~until:all_done;
  let st = server_stats () in
  let duration = max 1 (!t_end - !t_start) in
  let total = clients * reqs_per_client in
  { r_config = config;
    r_mode = mode;
    r_knobs = knobs;
    r_clients = clients;
    r_pipeline = (if knobs.k_keepalive then pipeline else 1);
    r_requests = total;
    r_files = files;
    r_file_bytes = file_bytes;
    r_duration_ms = float_of_int duration /. 1e6;
    r_rps = float_of_int total *. 1e9 /. float_of_int duration;
    (* warmup issued [files] (keep-alive: one connection) extra requests *)
    r_responses = st.Httpd.responses - files;
    r_reused = st.Httpd.reused;
    r_pipelined = st.Httpd.pipelined;
    r_idle_closed = st.Httpd.idle_closed;
    r_capped = st.Httpd.capped;
    r_protocol_errors = st.Httpd.protocol_errors;
    r_mismatches = !mismatches;
    r_sendfile_bodies = st.Httpd.sendfile_bodies;
    r_sendfile_fallbacks = st.Httpd.sendfile_fallbacks;
    r_body_bytes_copied = st.Httpd.body_bytes_copied;
    r_copied_per_req = float_of_int st.Httpd.body_bytes_copied /. float_of_int (max 1 total);
    r_bufcache_hits = Cost.counters.Cost.bufcache_hits - !c0_hits;
    r_bufcache_misses = Cost.counters.Cost.bufcache_misses - !c0_misses;
    r_accepted = st.Httpd.accepted;
    r_xmits_per_resp =
      float_of_int (Nic.xmit_count server.Clientos.nic - !x0) /. float_of_int total }
