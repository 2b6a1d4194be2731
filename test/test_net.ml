(* Integration tests: TCP transfers across the three network
   configurations of the paper's evaluation, on the simulated testbed. *)

open Testbed

(* Deterministic test pattern. *)
let pattern n =
  Bytes.init n (fun i -> Char.chr ((i * 131) land 0xff))

let digest b = Digest.to_hex (Digest.bytes b)

(* [bytes] from a [sender]-config client on host a to a [receiver]-config
   server on host b; any two configurations interoperate on the wire. *)
let run_pair ?models ?(port = 5001) ~sender ~receiver ~bytes () =
  let tb = fresh ?models () in
  let serve, _, _ = setup receiver tb.Clientos.host_b ~addr:server_ip in
  let _, connect, _ = setup sender tb.Clientos.host_a ~addr:client_ip in
  let received = Buffer.create bytes in
  let done_flag = ref false in
  serve ~port (fun s ->
      let buf = Bytes.create 8192 in
      let rec loop () =
        match s.recv buf 8192 with
        | 0 ->
            ignore (s.close ());
            done_flag := true
        | n ->
            Buffer.add_subbytes received buf 0 n;
            loop ()
      in
      loop ());
  let data = pattern bytes in
  connect ~dst:server_ip ~port (fun s ->
      Alcotest.(check int) "all bytes accepted" bytes (s.send data bytes);
      ok (s.close ());
      ok (s.release ()));
  Clientos.run tb ~until:(fun () -> !done_flag);
  Alcotest.(check bool) "transfer completed" true !done_flag;
  Alcotest.(check int) "received size" bytes (Buffer.length received);
  let label =
    if sender = receiver then "payload integrity" else "payload integrity across stacks"
  in
  Alcotest.(check string) label (digest data)
    (digest (Buffer.to_bytes received))

let suite =
  let freebsd = run_pair ~sender:Freebsd ~receiver:Freebsd in
  let oskit = run_pair ~models:("NE2000", "tulip") ~sender:Oskit ~receiver:Oskit in
  let linux = run_pair ~models:("3c59x", "lance") ~sender:Linux ~receiver:Linux in
  [ Alcotest.test_case "freebsd-native 256KB transfer" `Quick (fun () ->
        freebsd ~bytes:(256 * 1024) ());
    Alcotest.test_case "oskit-config 256KB transfer" `Quick (fun () ->
        oskit ~bytes:(256 * 1024) ());
    Alcotest.test_case "linux-native 256KB transfer" `Quick (fun () ->
        linux ~bytes:(256 * 1024) ());
    Alcotest.test_case "oskit->freebsd interop 64KB" `Quick (fun () ->
        run_pair ~models:("eepro100", "tulip") ~port:7 ~sender:Oskit ~receiver:Freebsd
          ~bytes:(64 * 1024) ());
    Alcotest.test_case "freebsd tiny (1 byte)" `Quick (fun () -> freebsd ~bytes:1 ());
    Alcotest.test_case "oskit odd size (12345)" `Quick (fun () -> oskit ~bytes:12345 ()) ]
