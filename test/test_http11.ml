(* The HTTP/1.1 keep-alive engine and the sendfile content path (PR 10):
   the O(bytes) request scanner under one-byte drips, keep-alive
   sequences byte-exact against N separate HTTP/1.0 connections,
   pipelined responses strictly in order, the idle timeout and the
   per-connection request cap, sendfile-vs-copy body byte-exactness
   across block boundaries (also under 2% loss), one sendv per pipeline
   of sendfile responses with every pin returned, buffer-cache pin and
   eviction hardening, and the flags-off world untouched. *)

open Testbed

(* ---- knob scoping: set the PR-10 knobs for [f], restore after ---- *)

let with_http11 ?(keepalive = true) ?(sendfile = false) ?(sg = false)
    ?(idle_ns = 5_000_000_000) ?(max_reqs = 0) ?(pipeline_max = 8) f =
  Cost.with_config
    (fun c ->
      c.Cost.http_keepalive <- keepalive;
      c.Cost.sendfile <- sendfile;
      c.Cost.sg_tx <- sg;
      c.Cost.http_idle_timeout_ns <- idle_ns;
      c.Cost.http_max_reqs_per_conn <- max_reqs;
      c.Cost.http_pipeline_max <- pipeline_max)
    f

(* ---- a server rig: FFS root with one pattern file per size ---- *)

let pattern ~file pos = ((pos * 131) + (file * 17)) land 0xff
let file_name i = Printf.sprintf "f%d.bin" i

let make_root sizes =
  let bodies =
    List.mapi (fun fi size -> String.init size (fun i -> Char.chr (pattern ~file:fi i))) sizes
  in
  let fs, root =
    make_fs ~dev_bytes:(4 * 1024 * 1024) (List.mapi (fun fi b -> file_name fi, b) bodies)
  in
  (fs, root, Array.of_list bodies)

(* Serve [sizes] from host_b in [mode]; [f] drives clients on host_a and
   must eventually make [until] true.  [wrap] re-exports the listening
   socket; [on_fs] sees the served file system before any request. *)
let rig ?loss ?(mode = Reactor) ?(wrap = Fun.id) ?(on_fs = ignore) ~sizes ~until f =
  let netem =
    Option.map (fun l -> Netem.create ~seed:29 ~policy:{ Netem.default_policy with loss = l } ()) loss
  in
  let tb = fresh ?netem () in
  let server = tb.Clientos.host_b and chost = tb.Clientos.host_a in
  let fs, root, bodies = make_root sizes in
  on_fs fs;
  let sock = wrap (fst (server_sock Freebsd server)) in
  let cstack = Clientos.freebsd_host chost ~ip:client_ip ~mask in
  let reactor = Reactor.create () in
  let stats = serve_httpd ~mode ~backlog:16 ~reactor ~until server sock root in
  f chost cstack bodies;
  Clientos.run tb ~until;
  stats ()

(* ---- client helpers ---- *)

let get_request fi = Printf.sprintf "GET /%s HTTP/1.1\r\nHost: b\r\n\r\n" (file_name fi)

let status_of hdr = if String.length hdr >= 12 then String.sub hdr 9 3 else "???"

(* ------------------------------------------------------------------ *)
(* The request scanner: one-byte drips cost one cursor step per byte
   (the PR-10 fix for the quadratic re-scan), split and back-to-back
   requests frame exactly, and "\n\r\n" alone never terminates.        *)

let test_scanner_drip () =
  let req = "GET /f0.bin HTTP/1.1\r\nHost: x\r\nX-Pad: abcdefgh\r\n\r\n" in
  let rb = Httpd.rb_create () in
  let n = String.length req in
  String.iteri
    (fun i c ->
      Httpd.rb_append rb (Bytes.make 1 c) 1;
      (* Resume cursor: every appended byte is examined exactly once —
         after a miss the scan cursor sits at the buffer end, never
         rewound by the next drip. *)
      if i < n - 1 then begin
        Alcotest.(check (option string))
          (Printf.sprintf "no request after %d bytes" (i + 1))
          None (Httpd.rb_next_request rb);
        Alcotest.(check int)
          (Printf.sprintf "cursor caught up at byte %d" (i + 1))
          rb.Httpd.rb_len rb.Httpd.rb_scan
      end)
    req;
  Alcotest.(check (option string)) "the final byte completes the request" (Some req)
    (Httpd.rb_next_request rb);
  Alcotest.(check (option string)) "and nothing is left" None (Httpd.rb_next_request rb)

let test_scanner_pipelined_and_terminators () =
  (* Two back-to-back requests in one append frame separately. *)
  let r1 = "GET /a HTTP/1.1\r\n\r\n" and r2 = "GET /b HTTP/1.1\n\n" in
  let rb = Httpd.rb_create () in
  let both = Bytes.of_string (r1 ^ r2) in
  Httpd.rb_append rb both (Bytes.length both);
  Alcotest.(check (option string)) "first request" (Some r1) (Httpd.rb_next_request rb);
  Alcotest.(check (option string)) "second request (bare-LF form)" (Some r2)
    (Httpd.rb_next_request rb);
  (* "\n\r\n" matches neither "\r\n\r\n" nor "\n\n" — exactly the old
     substring semantics. *)
  let rb2 = Httpd.rb_create () in
  let s = Bytes.of_string "GET /c HTTP/1.1\n\r\n" in
  Httpd.rb_append rb2 s (Bytes.length s);
  Alcotest.(check (option string)) "LF CR LF does not terminate" None
    (Httpd.rb_next_request rb2);
  (* A header bigger than the 512-byte initial buffer still frames. *)
  let big = "GET /d HTTP/1.1\r\nX-Pad: " ^ String.make 700 'a' ^ "\r\n\r\n" in
  let rb3 = Httpd.rb_create () in
  String.iter (fun c -> Httpd.rb_append rb3 (Bytes.make 1 c) 1) big;
  Alcotest.(check (option string)) "growth preserves the drip scan" (Some big)
    (Httpd.rb_next_request rb3)

(* ------------------------------------------------------------------ *)
(* Keep-alive sequence: the same GETs over one persistent connection
   return statuses and bodies byte-identical to N separate HTTP/1.0
   connections, in both serving shapes.                                 *)

let sizes3 = [ 1000; 4096; 300 ]

let keepalive_sequence mode =
  let reqs = [ 0; 1; 2; 0; 2 ] in
  let ka_results = ref [] and ka_done = ref false in
  let st =
    with_http11 (fun () ->
        rig ~mode ~sizes:sizes3
          ~until:(fun () -> !ka_done)
          (fun chost cstack _bodies ->
            Clientos.spawn chost ~name:"ka" (fun () ->
                Kclock.sleep_ns 3_000_000;
                let s = Bsd_socket.tcp_socket cstack in
                ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80);
                let next = framer s in
                List.iter
                  (fun fi ->
                    send_string s (get_request fi);
                    match next () with
                    | Some (hdr, body) ->
                        ka_results := (status_of hdr, body) :: !ka_results
                    | None -> ka_results := (("eof", "") :: !ka_results))
                  reqs;
                ignore (Bsd_socket.so_close s);
                ka_done := true)))
  in
  let h10_results = ref [] and h10_done = ref false in
  ignore
    (with_http11 ~keepalive:false (fun () ->
         rig ~sizes:sizes3
           ~until:(fun () -> !h10_done)
           (fun chost cstack _bodies ->
             Clientos.spawn chost ~name:"h10" (fun () ->
                 Kclock.sleep_ns 3_000_000;
                 List.iter
                   (fun fi ->
                     let s = Bsd_socket.tcp_socket cstack in
                     ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80);
                     send_string s
                       (Printf.sprintf "GET /%s HTTP/1.0\r\n\r\n" (file_name fi));
                     let resp = drain s in
                     let body =
                       match index_of resp "\r\n\r\n" with
                       | Some i -> String.sub resp (i + 4) (String.length resp - i - 4)
                       | None -> ""
                     in
                     h10_results := (status_of resp, body) :: !h10_results;
                     ignore (Bsd_socket.so_close s))
                   reqs;
                 h10_done := true))));
  Alcotest.(check (list (pair string string)))
    "keep-alive sequence matches N fresh HTTP/1.0 connections" !h10_results !ka_results;
  Alcotest.(check int) "one connection carried all requests" 1 st.Httpd.accepted;
  Alcotest.(check int) "every request after the first counted as reuse"
    (List.length reqs - 1) st.Httpd.reused

let test_keepalive_sequence_reactor () = keepalive_sequence Reactor
let test_keepalive_sequence_threaded () = keepalive_sequence Threads

(* ------------------------------------------------------------------ *)
(* Pipelining: a burst of requests sent before any response is read
   comes back strictly in request order.                                *)

let test_pipelined_in_order () =
  let order = [ 2; 0; 1; 2; 1; 0 ] in
  let got = ref [] and done_f = ref false in
  let st =
    with_http11 (fun () ->
        rig ~sizes:sizes3
          ~until:(fun () -> !done_f)
          (fun chost cstack _bodies ->
            Clientos.spawn chost ~name:"pipe" (fun () ->
                Kclock.sleep_ns 3_000_000;
                let s = Bsd_socket.tcp_socket cstack in
                ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80);
                let b = Buffer.create 256 in
                List.iter (fun fi -> Buffer.add_string b (get_request fi)) order;
                send_string s (Buffer.contents b);
                let next = framer s in
                List.iter
                  (fun _ ->
                    match next () with
                    | Some (_, body) -> got := body :: !got
                    | None -> ())
                  order;
                ignore (Bsd_socket.so_close s);
                done_f := true)))
  in
  let expect =
    List.map
      (fun fi ->
        String.init (List.nth sizes3 fi) (fun i -> Char.chr (pattern ~file:fi i)))
      order
  in
  Alcotest.(check (list string)) "responses in request order" expect (List.rev !got);
  Alcotest.(check bool) "server saw pipelined requests" true (st.Httpd.pipelined > 0)

(* ------------------------------------------------------------------ *)
(* Idle timeout: a connection left open past http_idle_timeout_ns is
   closed by the server and counted.                                    *)

let test_idle_timeout () =
  let eof = ref false and served = ref false in
  let st =
    with_http11 ~idle_ns:50_000_000 (fun () ->
        rig ~sizes:sizes3
          ~until:(fun () -> !eof)
          (fun chost cstack _bodies ->
            Clientos.spawn chost ~name:"idler" (fun () ->
                Kclock.sleep_ns 3_000_000;
                let s = Bsd_socket.tcp_socket cstack in
                ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80);
                send_string s (get_request 0);
                let next = framer s in
                (match next () with Some _ -> served := true | None -> ());
                (* Go idle: the next read must see the server's close,
                   not hang forever. *)
                (match next () with None -> eof := true | Some _ -> ());
                ignore (Bsd_socket.so_close s))))
  in
  Alcotest.(check bool) "the request before the idle gap was served" true !served;
  Alcotest.(check bool) "the idle connection saw EOF" true !eof;
  Alcotest.(check int) "one idle close counted" 1 st.Httpd.idle_closed;
  Alcotest.(check int) "not a protocol error" 0 st.Httpd.protocol_errors

(* ------------------------------------------------------------------ *)
(* Request cap: http_max_reqs_per_conn cuts the connection after N
   requests, advertising Connection: close on the last response.        *)

let test_max_reqs_cap () =
  let hdrs = ref [] and eof = ref false in
  let st =
    with_http11 ~max_reqs:2 (fun () ->
        rig ~sizes:sizes3
          ~until:(fun () -> !eof)
          (fun chost cstack _bodies ->
            Clientos.spawn chost ~name:"capped" (fun () ->
                Kclock.sleep_ns 3_000_000;
                let s = Bsd_socket.tcp_socket cstack in
                ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80);
                let next = framer s in
                for fi = 0 to 1 do
                  send_string s (get_request fi);
                  match next () with
                  | Some (hdr, _) -> hdrs := hdr :: !hdrs
                  | None -> ()
                done;
                (* The server hung up after the capped response. *)
                send_string s (get_request 2);
                (match next () with None -> eof := true | Some _ -> ());
                ignore (Bsd_socket.so_close s))))
  in
  (match !hdrs with
  | [ second; first ] ->
      Alcotest.(check bool) "first response keeps the connection" true
        (index_of (String.lowercase_ascii first) "connection: keep-alive" <> None);
      Alcotest.(check bool) "capped response advertises close" true
        (index_of (String.lowercase_ascii second) "connection: close" <> None)
  | l -> Alcotest.failf "expected 2 responses, got %d" (List.length l));
  Alcotest.(check bool) "request past the cap saw EOF" true !eof;
  Alcotest.(check int) "one connection capped" 1 st.Httpd.capped

(* ------------------------------------------------------------------ *)
(* Sendfile vs copy: for file sizes spanning block boundaries, the
   mapped zero-copy body is byte-identical to the copy-path body — with
   and without 2% loss on the wire.                                     *)

let fetch_one ~sendfile ~loss size =
  let body = ref None and done_f = ref false in
  let st =
    with_http11 ~sendfile ~sg:sendfile (fun () ->
        rig ?loss ~sizes:[ size ]
          ~until:(fun () -> !done_f)
          (fun chost cstack _bodies ->
            Clientos.spawn chost ~name:"fetch" (fun () ->
                Kclock.sleep_ns 3_000_000;
                let s = Bsd_socket.tcp_socket cstack in
                ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80);
                send_string s (get_request 0);
                (match framer s () with
                | Some (hdr, b) when status_of hdr = "200" -> body := Some b
                | _ -> ());
                ignore (Bsd_socket.so_close s);
                done_f := true)))
  in
  (!body, st)

let prop_sendfile_byte_exact =
  QCheck.Test.make ~name:"http11: sendfile body byte-exact across block edges (+loss)"
    ~count:10
    QCheck.(triple (int_bound 3) (int_range (-3) 3) bool)
    (fun (blocks, delta, lossy) ->
      let size = max 1 ((blocks * 4096) + delta) in
      let loss = if lossy then Some 0.02 else None in
      let expect = String.init size (fun i -> Char.chr (pattern ~file:0 i)) in
      let sf_body, sf_st = fetch_one ~sendfile:true ~loss size in
      let cp_body, cp_st = fetch_one ~sendfile:false ~loss size in
      sf_body = Some expect && cp_body = Some expect
      && sf_st.Httpd.sendfile_bodies = 1
      && sf_st.Httpd.sendfile_fallbacks = 0
      && sf_st.Httpd.body_bytes_copied = 0
      && cp_st.Httpd.sendfile_bodies = 0
      && cp_st.Httpd.body_bytes_copied = size)

(* ------------------------------------------------------------------ *)
(* One send per pipeline: the keep-alive engine hands the queue's
   leading run of built sendfile responses to the socket in one sendv
   call, credits the accepted bytes in order, and drops each response's
   pins exactly once.                                                   *)

(* [wrap] for [rig]: every accepted connection is re-exported with its
   sendv calls counted in [calls] (and its send buffer set to [sndbuf]
   bytes, if given). *)
let counting_listener ?sndbuf calls (sock : Io_if.socket) =
  let wrap (c : Io_if.socket) =
    Option.iter (fun n -> ok (c.Io_if.so_setsockopt "sndbuf" n)) sndbuf;
    let aio = ok (Com.query c.Io_if.so_unknown Io_if.asyncio_iid) in
    let sv = ok (Com.query c.Io_if.so_unknown Io_if.sendv_iid) in
    let counted =
      { sv with
        Io_if.sv_send_frags =
          (fun ~frags ~pos ->
            incr calls;
            sv.Io_if.sv_send_frags ~frags ~pos) }
    in
    let rec obj =
      lazy
        (Com.create (fun _ ->
             [ Iid.B (Io_if.socket_iid, view);
               Iid.B (Io_if.asyncio_iid, fun () -> aio);
               Iid.B (Io_if.sendv_iid, fun () -> counted) ]))
    and view () = { c with Io_if.so_unknown = Lazy.force obj } in
    view ()
  in
  { sock with
    Io_if.so_accept = (fun () -> Result.map (fun (c, peer) -> (wrap c, peer)) (sock.Io_if.so_accept ())) }

let close_request fi =
  Printf.sprintf "GET /%s HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n" (file_name fi)

(* Eight GETs pipelined in one segment at a sendfile+sg reactor server;
   request [close_at] (if any) asks to close.  Runs until the client is
   done and every pin came back, checks that they did, and returns the
   replies read before EOF, the expected bodies, the server's stats, the
   sendv calls, and the pins taken. *)
let pipeline8 ?sndbuf ?close_at () =
  let order = [ 0; 1; 2; 1; 0; 2; 2; 0 ] in
  let got = ref [] and done_f = ref false and calls = ref 0 in
  let fs = ref None and base = ref None in
  let pins () = Buf.cache_stats (Option.get !fs).Ffs.bc in
  (* Settled: the client is done and every pin taken came back, or the
     ACKs still in flight have had 10,000 simulation steps to bring them
     back (the checks below then fail). *)
  let grace = ref 10_000 in
  let settled () =
    !done_f
    && (decr grace;
        !grace < 0
        ||
        let s = pins () and b = Option.get !base in
        s.Buf.cs_pins - s.Buf.cs_unpins = b.Buf.cs_pins - b.Buf.cs_unpins
        && s.Buf.cs_pinned = b.Buf.cs_pinned)
  in
  let st =
    with_http11 ~sendfile:true ~sg:true (fun () ->
        rig ~sizes:sizes3 ~wrap:(counting_listener ?sndbuf calls)
          ~on_fs:(fun f ->
            fs := Some f;
            base := Some (pins ()))
          ~until:settled
          (fun chost cstack _bodies ->
            Clientos.spawn chost ~name:"pipe8" (fun () ->
                Kclock.sleep_ns 3_000_000;
                let s = Bsd_socket.tcp_socket cstack in
                ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80);
                send_string s
                  (String.concat ""
                     (List.mapi
                        (fun i fi ->
                          if Some i = close_at then close_request fi else get_request fi)
                        order));
                let next = framer s in
                let rec read () =
                  match next () with
                  | Some r ->
                      got := r :: !got;
                      read ()
                  | None -> ()
                in
                read ();
                ignore (Bsd_socket.so_close s);
                done_f := true)))
  in
  let expect =
    List.map
      (fun fi -> String.init (List.nth sizes3 fi) (fun i -> Char.chr (pattern ~file:fi i)))
      order
  in
  let s = pins () and b = Option.get !base in
  Alcotest.(check int) "every pin released exactly once" (b.Buf.cs_pins - b.Buf.cs_unpins)
    (s.Buf.cs_pins - s.Buf.cs_unpins);
  Alcotest.(check int) "buffers held back at the baseline" b.Buf.cs_pinned s.Buf.cs_pinned;
  Alcotest.(check int) "no pin released twice" 0 s.Buf.cs_bad_unpins;
  (List.rev !got, expect, st, !calls, s.Buf.cs_pins - b.Buf.cs_pins)

let check_replies what replies expect =
  Alcotest.(check (list string)) (what ^ ": byte-exact, in request order") expect
    (List.map snd replies);
  List.iter
    (fun (hdr, _) -> Alcotest.(check string) (what ^ ": status") "200" (status_of hdr))
    replies

let test_pipeline_one_send () =
  let replies, expect, st, calls, pinned = pipeline8 () in
  check_replies "8 pipelined" replies expect;
  Alcotest.(check int) "the server saw 7 pipelined requests" 7 st.Httpd.pipelined;
  Alcotest.(check int) "every body went by sendfile" 8 st.Httpd.sendfile_bodies;
  Alcotest.(check int) "the whole pipeline left in one sendv call" 1 calls;
  Alcotest.(check bool) "bodies were pinned" true (pinned > 0)

let test_pipeline_small_sndbuf () =
  let replies, expect, _, calls, _ = pipeline8 ~sndbuf:2048 () in
  check_replies "2 KB send buffer" replies expect;
  Alcotest.(check bool) "the batch drained over many sendv calls" true (calls > 8)

let test_pipeline_close_mid_batch () =
  let replies, expect, st, calls, _ = pipeline8 ~close_at:3 () in
  check_replies "close at the 4th" replies (List.filteri (fun i _ -> i < 4) expect);
  Alcotest.(check bool) "the 4th reply says close" true
    (index_of (String.lowercase_ascii (fst (List.nth replies 3))) "connection: close" <> None);
  Alcotest.(check int) "requests after the close were never answered" 4 st.Httpd.responses;
  Alcotest.(check int) "one sendv call" 1 calls

(* ------------------------------------------------------------------ *)
(* Buffer-cache hardening: true-LRU eviction, pinned buffers are never
   victims, and an all-pinned cache grows instead of evicting.          *)

let test_buf_lru_and_pins () =
  let dev = Mem_blkio.make ~bytes:(1024 * 1024) () in
  let bc = Buf.create ~bsize:4096 ~max_bufs:4 dev in
  (* Fill: 0 1 2 3, all released. *)
  for i = 0 to 3 do
    Buf.brelse (Buf.bread bc i)
  done;
  (* Touch 0 so 1 becomes the true LRU, then fault 4: 1 must go. *)
  Buf.brelse (Buf.bread bc 0);
  Buf.brelse (Buf.bread bc 4);
  let s = Buf.cache_stats bc in
  Alcotest.(check int) "one eviction under pressure" 1 s.Buf.cs_evictions;
  Alcotest.(check int) "cache stays at max_bufs" 4 s.Buf.cs_cached;
  (* 0 survived (recently used): a re-read hits. *)
  let h0 = bc.Buf.hits in
  Buf.brelse (Buf.bread bc 0);
  Alcotest.(check int) "recently-used block survived" (h0 + 1) bc.Buf.hits;
  (* 1 was the victim: a re-read misses. *)
  let m0 = bc.Buf.misses in
  Buf.brelse (Buf.bread bc 1);
  Alcotest.(check int) "LRU block was the victim" (m0 + 1) bc.Buf.misses

let test_buf_pinned_never_evicted () =
  let dev = Mem_blkio.make ~bytes:(1024 * 1024) () in
  let bc = Buf.create ~bsize:4096 ~max_bufs:2 dev in
  let b0 = Buf.bread bc 0 in
  Buf.pin_held bc b0;
  (* Churn far past the cache size: the pinned block must survive. *)
  for i = 1 to 8 do
    Buf.brelse (Buf.bread bc i)
  done;
  let h0 = bc.Buf.hits in
  let again = Buf.bread bc 0 in
  Alcotest.(check int) "pinned block still resident" (h0 + 1) bc.Buf.hits;
  Alcotest.(check bool) "same buffer, refs intact" true (again == b0 && b0.Buf.b_refs = 2);
  Buf.brelse again;
  Buf.unpin bc b0;
  let s = Buf.cache_stats bc in
  Alcotest.(check (pair int int)) "pin/unpin accounted" (1, 1) (s.Buf.cs_pins, s.Buf.cs_unpins);
  Alcotest.(check bool) "evictions happened around the pin" true (s.Buf.cs_evictions > 0)

let test_buf_all_pinned_grows () =
  let dev = Mem_blkio.make ~bytes:(1024 * 1024) () in
  let bc = Buf.create ~bsize:4096 ~max_bufs:2 dev in
  (* Three blocks, all pinned: nothing is evictable, so the cache grows
     past max_bufs (BSD under wired pages) rather than stealing bytes
     that may be queued for DMA. *)
  let bs = List.init 3 (fun i -> Buf.bread bc i) in
  List.iter (fun b -> Buf.pin_held bc b) bs;
  let s = Buf.cache_stats bc in
  Alcotest.(check int) "no evictions with everything pinned" 0 s.Buf.cs_evictions;
  Alcotest.(check int) "cache grew past max_bufs" 3 s.Buf.cs_cached;
  List.iter (fun b -> Buf.unpin bc b) bs;
  (* Once the pins drain, the next miss shrinks the cache back under the
     limit: a pin storm does not grow it for good. *)
  Buf.brelse (Buf.bread bc 3);
  let s = Buf.cache_stats bc in
  Alcotest.(check bool) "next miss shrinks back to max_bufs" true (s.Buf.cs_cached <= 2)

(* A sendfile pin released twice: the second release finds the buffer
   unreferenced, so its count stays clamped at 0 and the fault is
   counted instead of passing unnoticed. *)
let test_buf_double_release_counted () =
  let fs, root, _ = make_root [ 4096 ] in
  let f =
    match ok (root.Io_if.d_lookup (file_name 0)) with
    | Io_if.Node_file f -> f
    | Io_if.Node_dir _ -> Alcotest.fail "f0.bin is a directory"
  in
  let fm = ok (Com.query f.Io_if.f_unknown Io_if.filemap_iid) in
  let fr = List.hd (ok (fm.Io_if.fm_map_blocks ~offset:0 ~amount:4096)) in
  let bc = fs.Ffs.bc in
  let b =
    Hashtbl.fold (fun _ b acc -> if b.Buf.b_data == fr.Io_if.fr_data then Some b else acc)
      bc.Buf.cache None
  in
  let bad () = (Buf.cache_stats bc).Buf.cs_bad_unpins in
  fr.Io_if.fr_release ();
  Alcotest.(check int) "the mapping's own release is no fault" 0 (bad ());
  fr.Io_if.fr_release ();
  Alcotest.(check int) "the second release is counted" 1 (bad ());
  Alcotest.(check int) "the reference count stays at 0" 0 (Option.get b).Buf.b_refs

(* ------------------------------------------------------------------ *)
(* Flags off: the stock HTTP/1.0 engine runs, and none of the new
   keep-alive/sendfile counters move.                                   *)

let test_flags_off_untouched () =
  let expect = String.init 4096 (fun i -> Char.chr (pattern ~file:1 i)) in
  let ok_200 = ref false and done_f = ref false in
  let st =
    rig ~sizes:sizes3
      ~until:(fun () -> !done_f)
      (fun chost cstack _bodies ->
        Clientos.spawn chost ~name:"v10" (fun () ->
            Kclock.sleep_ns 3_000_000;
            let s = Bsd_socket.tcp_socket cstack in
            ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80);
            send_string s "GET /f1.bin HTTP/1.0\r\n\r\n";
            ok_200 := read_200 s ~expect;
            ignore (Bsd_socket.so_close s);
            done_f := true))
  in
  Alcotest.(check bool) "stock HTTP/1.0 close-per-request response" true !ok_200;
  Alcotest.(check int) "no reuse counted" 0 st.Httpd.reused;
  Alcotest.(check int) "no pipelining counted" 0 st.Httpd.pipelined;
  Alcotest.(check int) "no idle closes" 0 st.Httpd.idle_closed;
  Alcotest.(check int) "no caps" 0 st.Httpd.capped;
  (* The rig's reset_globals zeroed the counters; the flags-off run must
     not have moved the new ones at all. *)
  Alcotest.(check int) "no sendfile bodies" 0 Cost.counters.Cost.sendfile_bodies;
  Alcotest.(check int) "no sendfile fallbacks" 0 Cost.counters.Cost.sendfile_fallbacks;
  Alcotest.(check int) "no counted body copies" 0 Cost.counters.Cost.http_body_copies

let suite =
  [ Alcotest.test_case "scanner: one-byte drips, cursor never rewinds" `Quick
      test_scanner_drip;
    Alcotest.test_case "scanner: pipelined framing, terminator semantics, growth"
      `Quick test_scanner_pipelined_and_terminators;
    Alcotest.test_case "keep-alive sequence == N fresh 1.0 connections (reactor)"
      `Quick test_keepalive_sequence_reactor;
    Alcotest.test_case "keep-alive sequence == N fresh 1.0 connections (threads)"
      `Quick test_keepalive_sequence_threaded;
    Alcotest.test_case "pipelined responses come back strictly in order" `Quick
      test_pipelined_in_order;
    Alcotest.test_case "idle timeout closes and is counted" `Quick test_idle_timeout;
    Alcotest.test_case "http_max_reqs_per_conn caps with Connection: close" `Quick
      test_max_reqs_cap;
    QCheck_alcotest.to_alcotest prop_sendfile_byte_exact;
    Alcotest.test_case "buf cache: true-LRU eviction" `Quick test_buf_lru_and_pins;
    Alcotest.test_case "buf cache: pinned buffers are never evicted" `Quick
      test_buf_pinned_never_evicted;
    Alcotest.test_case "buf cache: all-pinned cache grows, never steals" `Quick
      test_buf_all_pinned_grows;
    Alcotest.test_case "buf cache: a sendfile pin released twice is counted" `Quick
      test_buf_double_release_counted;
    Alcotest.test_case "pipeline: 8 sendfile responses leave in one sendv, pins back"
      `Quick test_pipeline_one_send;
    Alcotest.test_case "pipeline: a 2 KB send buffer drains the batch byte-exact" `Quick
      test_pipeline_small_sndbuf;
    Alcotest.test_case "pipeline: Connection: close mid-batch ends after its bytes" `Quick
      test_pipeline_close_mid_batch;
    Alcotest.test_case "flags off: stock 1.0 engine, new counters untouched" `Quick
      test_flags_off_untouched ]
