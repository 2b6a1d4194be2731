(* The NetBSD-derived file system: buffer cache behaviour, FFS operations
   through the COM interfaces and the POSIX layer, crash-free remount, a
   qcheck model test, and fsread/diskpart interop. *)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "fs error: %s" (Error.to_string e)

let mem_dev ?(mb = 4) () = Mem_blkio.make ~bytes:(mb * 1024 * 1024) ()

(* The same blkio methods behind a COM object that exports nothing else,
   so the buffer cache never finds the blkmap face and copies. *)
let copy_only (dev : Io_if.blkio) =
  let rec view () = { dev with Io_if.bio_unknown = unknown () }
  and obj = lazy (Com.create (fun _ -> [ Iid.B (Io_if.blkio_iid, fun () -> view ()) ]))
  and unknown () = Lazy.force obj in
  view ()

(* An interposer that counts bio_read calls.  Like any record-update
   wrapper it keeps [dev]'s unknown, so the face stays reachable. *)
let counting_reads (dev : Io_if.blkio) =
  let n = ref 0 in
  ( { dev with
      Io_if.bio_read =
        (fun ~buf ~pos ~offset ~amount ->
          incr n;
          dev.Io_if.bio_read ~buf ~pos ~offset ~amount) },
    n )

let image (dev : Io_if.blkio) =
  let n = dev.Io_if.getsize () in
  let b = Bytes.create n in
  Alcotest.(check int) "whole image read" n
    (ok (dev.Io_if.bio_read ~buf:b ~pos:0 ~offset:0 ~amount:n));
  Bytes.to_string b

let with_posix_fs f =
  let dev = mem_dev () in
  let root = ok (Fs_glue.newfs dev) in
  let env = Posix.create_env () in
  Posix.set_root env (Some root);
  f env root dev

let write_file env path content =
  let fd = ok (Posix.open_ env path (Posix.o_creat lor Posix.o_rdwr lor Posix.o_trunc)) in
  let b = Bytes.of_string content in
  let n = ok (Posix.write env fd b ~pos:0 ~len:(Bytes.length b)) in
  Alcotest.(check int) ("write " ^ path) (Bytes.length b) n;
  ok (Posix.close env fd)

let read_file env path =
  let fd = ok (Posix.open_ env path Posix.o_rdonly) in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec loop () =
    match ok (Posix.read env fd chunk ~pos:0 ~len:1024) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        loop ()
  in
  loop ();
  ok (Posix.close env fd);
  Buffer.contents buf

let test_create_read_write () =
  with_posix_fs (fun env _ _ ->
      write_file env "/hello.txt" "hello file system";
      Alcotest.(check string) "read back" "hello file system" (read_file env "/hello.txt"))

let test_directories () =
  with_posix_fs (fun env _ _ ->
      ok (Posix.mkdir env "/a");
      ok (Posix.mkdir env "/a/b");
      write_file env "/a/b/deep.txt" "nested";
      Alcotest.(check string) "nested read" "nested" (read_file env "/a/b/deep.txt");
      Alcotest.(check (list string)) "ls /a" [ "b" ] (ok (Posix.readdir env "/a"));
      (match Posix.rmdir env "/a" with
      | Error Error.Notempty -> ()
      | _ -> Alcotest.fail "rmdir non-empty must fail");
      ok (Posix.unlink env "/a/b/deep.txt");
      ok (Posix.rmdir env "/a/b");
      ok (Posix.rmdir env "/a");
      Alcotest.(check (list string)) "root empty again" [] (ok (Posix.readdir env "/")))

let test_big_file_indirect () =
  with_posix_fs (fun env _ _ ->
      (* 300 KB crosses from direct (48 KB) well into the indirect block. *)
      let size = 300 * 1024 in
      let content = String.init size (fun i -> Char.chr ((i * 7) land 0xff)) in
      write_file env "/big" content;
      let back = read_file env "/big" in
      Alcotest.(check int) "size" size (String.length back);
      Alcotest.(check string) "content hash" (Digest.to_hex (Digest.string content))
        (Digest.to_hex (Digest.string back)))

let test_double_indirect () =
  with_posix_fs (fun env _ _ ->
      (* > 48KB + 4MB would exceed the device; use a sparse write instead:
         one byte far into the double-indirect range. *)
      let far = (12 + 1024 + 5) * 4096 + 17 in
      let fd = ok (Posix.open_ env "/sparse" (Posix.o_creat lor Posix.o_rdwr)) in
      let _ = ok (Posix.lseek env fd ~offset:far `Set) in
      let one = Bytes.of_string "Z" in
      let _ = ok (Posix.write env fd one ~pos:0 ~len:1) in
      let st = ok (Posix.fstat env fd) in
      Alcotest.(check int) "sparse size" (far + 1) st.Io_if.st_size;
      let _ = ok (Posix.lseek env fd ~offset:far `Set) in
      let buf = Bytes.create 1 in
      let _ = ok (Posix.read env fd buf ~pos:0 ~len:1) in
      Alcotest.(check string) "far byte" "Z" (Bytes.to_string buf);
      (* Holes read as zeros. *)
      let _ = ok (Posix.lseek env fd ~offset:4096 `Set) in
      let _ = ok (Posix.read env fd buf ~pos:0 ~len:1) in
      Alcotest.(check string) "hole reads zero" "\000" (Bytes.to_string buf);
      ok (Posix.close env fd))

let test_truncate_frees_blocks () =
  let dev = mem_dev () in
  let fs = Ffs.newfs dev in
  let root = Ffs.root fs in
  let node = Ffs.create_file fs root ~name:"t" in
  let free0 = Ffs.free_blocks fs in
  let data = Bytes.make (100 * 1024) 'T' in
  ignore (Ffs.write fs node ~off:0 ~len:(Bytes.length data) ~src:data ~src_pos:0);
  Alcotest.(check bool) "blocks consumed" true (Ffs.free_blocks fs < free0);
  Ffs.truncate fs node 0;
  Alcotest.(check int) "all blocks back" free0 (Ffs.free_blocks fs);
  Alcotest.(check int) "size zero" 0 node.Ffs.i_size

let test_unlink_frees () =
  let dev = mem_dev () in
  let fs = Ffs.newfs dev in
  let root = Ffs.root fs in
  let free0 = Ffs.free_blocks fs in
  let node = Ffs.create_file fs root ~name:"gone" in
  let data = Bytes.make 8192 'x' in
  ignore (Ffs.write fs node ~off:0 ~len:8192 ~src:data ~src_pos:0);
  Ffs.unlink fs root ~name:"gone";
  Alcotest.(check int) "space reclaimed" free0 (Ffs.free_blocks fs);
  Alcotest.(check bool) "name gone" true (Ffs.dir_lookup fs root "gone" = None)

let test_rename () =
  with_posix_fs (fun env root _ ->
      write_file env "/old" "payload";
      ok (Posix.mkdir env "/dir");
      (* Rename across directories through the COM interface. *)
      (match ok (Posix.lookup env "/dir") with
      | Io_if.Node_dir d ->
          (match root.Io_if.d_rename "old" d "new" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "rename: %s" (Error.to_string e))
      | Io_if.Node_file _ -> Alcotest.fail "/dir is a file?");
      Alcotest.(check string) "content moved" "payload" (read_file env "/dir/new");
      match Posix.lookup env "/old" with
      | Error Error.Noent -> ()
      | _ -> Alcotest.fail "old name must be gone")

let test_persistence_across_remount () =
  let dev = mem_dev () in
  (let root = ok (Fs_glue.newfs dev) in
   let env = Posix.create_env () in
   Posix.set_root env (Some root);
   write_file env "/persist" "survives remount";
   ok (Posix.mkdir env "/d");
   write_file env "/d/inner" "inner data";
   ok (Fs_glue.sync_all root));
  (* Mount the same device afresh: everything must still be there. *)
  let root2 = ok (Fs_glue.mount dev) in
  let env2 = Posix.create_env () in
  Posix.set_root env2 (Some root2);
  Alcotest.(check string) "file survived" "survives remount" (read_file env2 "/persist");
  Alcotest.(check string) "nested survived" "inner data" (read_file env2 "/d/inner")

let test_errors () =
  with_posix_fs (fun env _ _ ->
      (match Posix.open_ env "/absent" Posix.o_rdonly with
      | Error Error.Noent -> ()
      | _ -> Alcotest.fail "ENOENT expected");
      write_file env "/f" "x";
      (match Posix.open_ env "/f/child" Posix.o_rdonly with
      | Error Error.Notdir -> ()
      | _ -> Alcotest.fail "ENOTDIR expected");
      (match Posix.mkdir env "/f" with
      | Error Error.Exist -> ()
      | _ -> Alcotest.fail "EEXIST expected");
      (match Posix.unlink env "/nope" with
      | Error Error.Noent -> ()
      | _ -> Alcotest.fail "unlink ENOENT expected");
      let long = String.make 100 'n' in
      match Posix.open_ env ("/" ^ long) (Posix.o_creat lor Posix.o_rdwr) with
      | Error Error.Nametoolong -> ()
      | _ -> Alcotest.fail "ENAMETOOLONG expected")

(* On the mapped device a delayed write is on the device at once; through
   the copy-only view it reaches the device when the buffer is evicted. *)
let test_buffer_cache () =
  List.iter
    (fun dev ->
      let bc = Buf.create ~bsize:4096 ~max_bufs:4 dev in
      let b0 = Buf.bread bc 0 in
      Bytes.set b0.Buf.b_data 0 'A';
      Buf.bdwrite b0;
      Buf.brelse b0;
      (* Re-read hits the cache. *)
      let b0' = Buf.bread bc 0 in
      Alcotest.(check char) "cache hit sees dirty data" 'A' (Bytes.get b0'.Buf.b_data 0);
      Buf.brelse b0';
      let _, _, hits = Buf.stats bc in
      Alcotest.(check bool) "hit counted" true (hits >= 1);
      (* Touch enough blocks to force eviction of the dirty one. *)
      for i = 1 to 8 do
        Buf.brelse (Buf.bread bc i)
      done;
      (* The delayed write must have reached the device. *)
      let probe = Bytes.create 1 in
      ignore (dev.Io_if.bio_read ~buf:probe ~pos:0 ~offset:0 ~amount:1);
      Alcotest.(check string) "dirty block flushed on eviction" "A" (Bytes.to_string probe))
    [ mem_dev (); copy_only (mem_dev ()) ]

(* Model test: random file operations agree with a Hashtbl-backed model. *)
let prop_fs_model =
  QCheck.Test.make ~name:"ffs: random ops agree with model" ~count:30
    QCheck.(
      list
        (triple (int_range 0 3) (int_range 0 5) (string_of_size (QCheck.Gen.int_range 0 300))))
    (fun ops ->
      let dev = mem_dev ~mb:2 () in
      let fs = Ffs.newfs dev in
      let root = Ffs.root fs in
      let model : (string, string) Hashtbl.t = Hashtbl.create 8 in
      let name i = "f" ^ string_of_int i in
      List.iter
        (fun (action, idx, payload) ->
          let nm = name idx in
          match action with
          | 0 ->
              (* create/overwrite *)
              (try
                 let node =
                   match Ffs.dir_lookup fs root nm with
                   | Some (_, ino) -> Ffs.iget fs ino
                   | None -> Ffs.create_file fs root ~name:nm
                 in
                 Ffs.truncate fs node 0;
                 ignore
                   (Ffs.write fs node ~off:0 ~len:(String.length payload)
                      ~src:(Bytes.of_string payload) ~src_pos:0);
                 Hashtbl.replace model nm payload
               with Ffs.Fs_error _ -> ())
          | 1 ->
              (* append *)
              (match Ffs.dir_lookup fs root nm with
              | Some (_, ino) ->
                  let node = Ffs.iget fs ino in
                  if node.Ffs.i_kind = Ffs.K_file then begin
                    ignore
                      (Ffs.write fs node ~off:node.Ffs.i_size ~len:(String.length payload)
                         ~src:(Bytes.of_string payload) ~src_pos:0);
                    Hashtbl.replace model nm (Hashtbl.find model nm ^ payload)
                  end
              | None -> ())
          | 2 ->
              (* unlink *)
              (try
                 Ffs.unlink fs root ~name:nm;
                 Hashtbl.remove model nm
               with Ffs.Fs_error _ -> ())
          | _ ->
              (* truncate to half *)
              (match Ffs.dir_lookup fs root nm with
              | Some (_, ino) ->
                  let node = Ffs.iget fs ino in
                  if node.Ffs.i_kind = Ffs.K_file then begin
                    let half = node.Ffs.i_size / 2 in
                    Ffs.truncate fs node half;
                    (match Hashtbl.find_opt model nm with
                    | Some s -> Hashtbl.replace model nm (String.sub s 0 half)
                    | None -> ())
                  end
              | None -> ()))
        ops;
      (* Verify every model file matches. *)
      Hashtbl.fold
        (fun nm expected acc ->
          acc
          &&
          match Ffs.dir_lookup fs root nm with
          | None -> false
          | Some (_, ino) ->
              let node = Ffs.iget fs ino in
              let got =
                Bytes.create node.Ffs.i_size |> fun b ->
                ignore (Ffs.read fs node ~off:0 ~len:node.Ffs.i_size ~dst:b ~dst_pos:0);
                Bytes.to_string b
              in
              String.equal got expected)
        model true
      && List.sort compare (Ffs.dir_entries fs root)
         = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) model []))

(* ---- directories: rename edge cases, lookup cost, and a slot-exact
   differential model ---- *)

let attempt f = match f () with v -> Ok v | exception Ffs.Fs_error e -> Error e

let error = Alcotest.testable (fun ppf e -> Format.pp_print_string ppf (Error.to_string e)) ( = )

let lookup_ino fs dir name = Option.map snd (Ffs.dir_lookup fs dir name)

(* rename(2): when both names reach the same inode, rename does nothing. *)
let test_rename_same_inode () =
  let fs = Ffs.newfs (mem_dev ()) in
  let root = Ffs.root fs in
  let a = Ffs.create_file fs root ~name:"a" in
  Ffs.rename fs root ~src_name:"a" root ~dst_name:"a";
  Alcotest.(check (option int)) "a -> a keeps a" (Some a.Ffs.ino) (lookup_ino fs root "a");
  Alcotest.(check int) "a -> a keeps nlink" 1 a.Ffs.i_nlink;
  let b = Ffs.create_file fs root ~name:"b" in
  Ffs.link fs ~from_dir:root ~from_name:"b" ~to_dir:root ~to_name:"c";
  Ffs.rename fs root ~src_name:"b" root ~dst_name:"c";
  Alcotest.(check (list string)) "b -> c (a hard link) keeps both" [ "a"; "b"; "c" ]
    (Ffs.dir_entries fs root);
  Alcotest.(check int) "b -> c keeps nlink" 2 b.Ffs.i_nlink;
  let d = Ffs.make_dir fs root ~name:"d" in
  Ffs.rename fs root ~src_name:"d" root ~dst_name:"d";
  Alcotest.(check (option int)) "d -> d keeps d" (Some d.Ffs.ino) (lookup_ino fs root "d");
  Alcotest.(check (option int)) "d/.. is still the root" (Some Ffs.root_ino)
    (lookup_ino fs d "..");
  Alcotest.(check int) "root nlink counts d" 3 root.Ffs.i_nlink;
  Alcotest.(check int) "d nlink" 2 d.Ffs.i_nlink

(* ufs_checkpath: a directory cannot move into its own subtree. *)
let test_rename_into_subtree () =
  let fs = Ffs.newfs (mem_dev ()) in
  let root = Ffs.root fs in
  let d = Ffs.make_dir fs root ~name:"d" in
  let e = Ffs.make_dir fs d ~name:"e" in
  Alcotest.(check (result unit error)) "d -> d/e/x" (Error Error.Inval)
    (attempt (fun () -> Ffs.rename fs root ~src_name:"d" e ~dst_name:"x"));
  Alcotest.(check (result unit error)) "d -> d/x" (Error Error.Inval)
    (attempt (fun () -> Ffs.rename fs root ~src_name:"d" d ~dst_name:"x"));
  Alcotest.(check (list string)) "d still in the root" [ "d" ] (Ffs.dir_entries fs root);
  Alcotest.(check (list string)) "e still in d" [ "e" ] (Ffs.dir_entries fs d);
  (* Moving up the tree is fine. *)
  Ffs.rename fs d ~src_name:"e" root ~dst_name:"e";
  Alcotest.(check (option int)) "e/.. is the root" (Some Ffs.root_ino) (lookup_ino fs e "..");
  Alcotest.(check (list int)) "link counts follow e" [ 4; 2; 2 ]
    [ root.Ffs.i_nlink; d.Ffs.i_nlink; e.Ffs.i_nlink ]

(* A lookup through the glue pays its crossing and one buffer-cache hit
   per directory block it scans, and copies nothing. *)
let test_lookup_cost () =
  let root = ok (Fs_glue.newfs (mem_dev ~mb:8 ())) in
  (* "." and ".." plus 128 files: 130 entries, two 4 KB blocks. *)
  for i = 0 to 127 do
    ignore (ok (root.Io_if.d_create (Printf.sprintf "f%d" i)))
  done;
  let counts () =
    let c = Cost.counters in
    Cost.[ c.copies; c.copied_bytes; c.glue_crossings; c.bufcache_hits ]
  in
  let check what name want_hits =
    let before = counts () in
    ignore (ok (root.Io_if.d_lookup name));
    Alcotest.(check (list int)) (what ^ ": copies, bytes, crossings, hits")
      [ 0; 0; 1; want_hits ] (List.map2 ( - ) (counts ()) before)
  in
  check "second block" "f127" 2;
  check "first block" "f0" 1

(* The model keeps each directory as its slots on disk: [Some (name,
   ino)] live, [None] a hole.  Inode numbers come from the file system
   when it creates one; every other effect, and every error, the model
   predicts. *)
type dmodel = {
  slots : (int, (string * int) option array) Hashtbl.t; (* dir ino -> slots *)
  files : (int, int) Hashtbl.t; (* file ino -> nlink *)
  top : int;
}

let m_dir m d = Hashtbl.find m.slots d
let m_is_dir m ino = Hashtbl.mem m.slots ino

let m_find m d name =
  let s = m_dir m d in
  let rec go i =
    if i >= Array.length s then None
    else match s.(i) with Some (n, ino) when n = name -> Some (i, ino) | _ -> go (i + 1)
  in
  go 0

let m_free_slot m d =
  let s = m_dir m d in
  let rec go i = if i >= Array.length s || s.(i) = None then i else go (i + 1) in
  go 0

let m_set m d i e =
  let s = m_dir m d in
  if i < Array.length s then s.(i) <- e else Hashtbl.replace m.slots d (Array.append s [| e |])

let m_entries m d =
  List.filter_map
    (function Some (n, ino) when n <> "." && n <> ".." -> Some (n, ino) | _ -> None)
    (Array.to_list (m_dir m d))

let m_parent m d = snd (Option.get (m_find m d ".."))
let rec m_below m node d = d = node || (d <> m.top && m_below m node (m_parent m d))

let m_drop m ino =
  let n = Hashtbl.find m.files ino - 1 in
  if n = 0 then Hashtbl.remove m.files ino else Hashtbl.replace m.files ino n

let m_path m d =
  let rec go d acc =
    if d = m.top then "/top" ^ acc
    else
      let p = m_parent m d in
      let name = fst (List.find (fun (_, ino) -> ino = d) (m_entries m p)) in
      go p ("/" ^ name ^ acc)
  in
  go d ""

type dop =
  | Create of int * int (* directory pick, name pick *)
  | Unlink of int * int
  | Mkdir of int * int
  | Rmdir of int * int
  | Link of int * int * int * int (* from dir, from name, to dir, to name *)
  | Rename of int * int * int * int
  | Sync

(* Files f0..f179 and directories d0..d7; a directory pick past the live
   directories means the top one, so most operations land there. *)
let dnames = Array.append (Array.init 180 (Printf.sprintf "f%d")) (Array.init 8 (Printf.sprintf "d%d"))

let show_dop = function
  | Create (d, n) -> Printf.sprintf "create %d/%s" d dnames.(n)
  | Unlink (d, n) -> Printf.sprintf "unlink %d/%s" d dnames.(n)
  | Mkdir (d, n) -> Printf.sprintf "mkdir %d/%s" d dnames.(n)
  | Rmdir (d, n) -> Printf.sprintf "rmdir %d/%s" d dnames.(n)
  | Link (a, n, b, n') -> Printf.sprintf "link %d/%s %d/%s" a dnames.(n) b dnames.(n')
  | Rename (a, n, b, n') -> Printf.sprintf "rename %d/%s %d/%s" a dnames.(n) b dnames.(n')
  | Sync -> "sync"

let gen_dop =
  QCheck.Gen.(
    let d = int_range 0 15 and n = int_range 0 (Array.length dnames - 1) in
    let dn = int_range 180 (Array.length dnames - 1) in
    frequency
      [ 6, map2 (fun a b -> Create (a, b)) d n;
        4, map2 (fun a b -> Unlink (a, b)) d n;
        2, map2 (fun a b -> Mkdir (a, b)) d dn;
        1, map2 (fun a b -> Rmdir (a, b)) d dn;
        2, (fun st -> Link (d st, n st, d st, n st));
        3, (fun st -> Rename (d st, n st, d st, n st));
        (* onto itself, and a directory into a directory *)
        1, map2 (fun a b -> Rename (a, b, a, b)) d n;
        1, (fun st -> Rename (d st, dn st, d st, dn st));
        1, return Sync ])

(* The model's verdict on [op]: the error the file system must return,
   or the update to make once it has succeeded (given the inode it
   allocated, if any). *)
let m_step m dir_of op =
  let ( let* ) = Result.bind in
  let lookup d n = Option.to_result ~none:Error.Noent (m_find m d dnames.(n)) in
  let absent d n = if m_find m d dnames.(n) = None then Ok () else Error Error.Exist in
  let enter d n ino = m_set m d (m_free_slot m d) (Some (dnames.(n), ino)) in
  match op with
  | Sync -> Ok ignore
  | Create (d, n) ->
      let d = dir_of d in
      let* () = absent d n in
      Ok (fun ino -> enter d n ino; Hashtbl.replace m.files ino 1)
  | Mkdir (d, n) ->
      let d = dir_of d in
      let* () = absent d n in
      Ok (fun ino ->
          enter d n ino;
          Hashtbl.replace m.slots ino [| Some (".", ino); Some ("..", d) |])
  | Unlink (d, n) ->
      let d = dir_of d in
      let* i, ino = lookup d n in
      if m_is_dir m ino then Error Error.Isdir
      else Ok (fun _ -> m_set m d i None; m_drop m ino)
  | Rmdir (d, n) ->
      let d = dir_of d in
      let* i, ino = lookup d n in
      if not (m_is_dir m ino) then Error Error.Notdir
      else if m_entries m ino <> [] then Error Error.Notempty
      else Ok (fun _ -> m_set m d i None; Hashtbl.remove m.slots ino)
  | Link (d, n, d', n') ->
      let d = dir_of d and d' = dir_of d' in
      let* _, ino = lookup d n in
      if m_is_dir m ino then Error Error.Isdir
      else
        let* () = absent d' n' in
        Ok (fun _ -> enter d' n' ino; Hashtbl.replace m.files ino (Hashtbl.find m.files ino + 1))
  | Rename (d, n, d', n') -> (
      let d = dir_of d and d' = dir_of d' in
      let* i, ino = lookup d n in
      let moves_dir = m_is_dir m ino && d <> d' in
      if moves_dir && m_below m ino d' then Error Error.Inval
      else
        let finish () =
          m_set m d i None;
          if moves_dir then m_set m ino 1 (Some ("..", d'))
        in
        match m_find m d' dnames.(n') with
        | Some (_, e) when e = ino -> Ok ignore
        | Some (_, e) when m_is_dir m e -> Error Error.Exist
        | Some (j, e) ->
            Ok (fun _ -> m_set m d' j (Some (dnames.(n'), ino)); m_drop m e; finish ())
        | None -> Ok (fun _ -> enter d' n' ino; finish ()))

let f_step fs dir_of op =
  let dir d = Ffs.iget fs (dir_of d) in
  attempt (fun () ->
      match op with
      | Sync -> Ffs.sync fs; 0
      | Create (d, n) -> (Ffs.create_file fs (dir d) ~name:dnames.(n)).Ffs.ino
      | Mkdir (d, n) -> (Ffs.make_dir fs (dir d) ~name:dnames.(n)).Ffs.ino
      | Unlink (d, n) -> Ffs.unlink fs (dir d) ~name:dnames.(n); 0
      | Rmdir (d, n) -> Ffs.remove_dir fs (dir d) ~name:dnames.(n); 0
      | Link (d, n, d', n') ->
          Ffs.link fs ~from_dir:(dir d) ~from_name:dnames.(n) ~to_dir:(dir d')
            ~to_name:dnames.(n');
          0
      | Rename (d, n, d', n') ->
          Ffs.rename fs (dir d) ~src_name:dnames.(n) (dir d') ~dst_name:dnames.(n');
          0)

let used_inodes fs =
  let sb = fs.Ffs.sb in
  let n = ref 0 in
  for i = 0 to sb.Ffs.ninodes - 1 do
    if Ffs.bitmap_get fs ~start:sb.Ffs.ibmap_start i then incr n
  done;
  !n

let prop_dir_model =
  QCheck.Test.make ~name:"ffs: directory ops agree with a slot-exact model" ~count:12
    QCheck.(
      pair (int_range 120 170)
        (list_of_size Gen.(int_range 100 250) (make ~print:show_dop gen_dop)))
    (fun (prefill, ops) ->
      (* 16 MB: 512 inodes, room for every file the ops can create. *)
      let dev = mem_dev ~mb:16 () in
      let fs = Ffs.newfs dev in
      let root = Ffs.root fs in
      let blocks0 = Ffs.free_blocks fs and inodes0 = used_inodes fs in
      let top = (Ffs.make_dir fs root ~name:"top").Ffs.ino in
      let m = { slots = Hashtbl.create 16; files = Hashtbl.create 256; top } in
      Hashtbl.replace m.slots top [| Some (".", top); Some ("..", Ffs.root_ino) |];
      let seen = Hashtbl.create 256 in
      let dir_of pick =
        let dirs = List.sort compare (Hashtbl.fold (fun d _ acc -> d :: acc) m.slots []) in
        if pick < List.length dirs then List.nth dirs pick else top
      in
      (* Every name seen so far resolves in every directory as the model
         says: same slot, same inode.  The slot is what shows a create
         that did not fill the first hole. *)
      let check_lookups op =
        Hashtbl.iter
          (fun d _ ->
            let dnode = Ffs.iget fs d in
            Hashtbl.iter
              (fun name () ->
                if Ffs.dir_lookup fs dnode name <> m_find m d name then
                  QCheck.Test.fail_reportf "after %s: lookup %s in %s" (show_dop op) name
                    (m_path m d))
              seen)
          m.slots
      in
      (* After sync, the directories read back the same through Ffs and
         through fsread's own parse of the image, and link counts agree. *)
      let check_image () =
        Ffs.sync fs;
        Hashtbl.iter
          (fun d _ ->
            let want = List.map fst (m_entries m d) in
            let subdirs = List.filter (fun (_, i) -> m_is_dir m i) (m_entries m d) in
            if Ffs.dir_entries fs (Ffs.iget fs d) <> want then
              QCheck.Test.fail_reportf "dir_entries %s" (m_path m d);
            if Fsread.list_dir dev (m_path m d) <> Ok want then
              QCheck.Test.fail_reportf "fsread list_dir %s" (m_path m d);
            if (Ffs.iget fs d).Ffs.i_nlink <> 2 + List.length subdirs then
              QCheck.Test.fail_reportf "nlink of %s" (m_path m d))
          m.slots;
        Hashtbl.iter
          (fun ino n ->
            if (Ffs.iget fs ino).Ffs.i_nlink <> n then
              QCheck.Test.fail_reportf "nlink of inode %d" ino)
          m.files
      in
      let step op =
        (match op with
        | Create (_, n) | Unlink (_, n) | Mkdir (_, n) | Rmdir (_, n) ->
            Hashtbl.replace seen dnames.(n) ()
        | Link (_, n, _, n') | Rename (_, n, _, n') ->
            Hashtbl.replace seen dnames.(n) ();
            Hashtbl.replace seen dnames.(n') ()
        | Sync -> ());
        (match m_step m dir_of op, f_step fs dir_of op with
        | Ok update, Ok ino -> update ino
        | Error e, Error e' when e = e' -> ()
        | want, got ->
            let show = function Ok _ -> "ok" | Error e -> Error.to_string e in
            QCheck.Test.fail_reportf "%s: model %s, ffs %s" (show_dop op) (show want)
              (show got));
        if op = Sync then check_image () else check_lookups op
      in
      List.iter step (List.init prefill (fun i -> Create (99, i)) @ ops @ [ Sync ]);
      (* Remove everything: blocks and inodes return to the baseline. *)
      let rec empty d =
        List.iter
          (fun (name, ino) ->
            if m_is_dir m ino then begin
              empty ino;
              Ffs.remove_dir fs (Ffs.iget fs d) ~name
            end
            else Ffs.unlink fs (Ffs.iget fs d) ~name)
          (m_entries m d)
      in
      empty top;
      Ffs.remove_dir fs root ~name:"top";
      Ffs.dir_entries fs root = []
      && Ffs.free_blocks fs = blocks0
      && used_inodes fs = inodes0)

(* ---- direct-mapped RAM disk: the buffer cache adopts the device's
   pages; a copy-only view of the same kind of device is the reference ---- *)

(* A cold 16 KB sendfile mapping: on the mapped device the four misses
   adopt pages and nothing is read or copied; through the copy-only view
   each miss reads and copies its block. *)
let test_mapped_sendfile_cold () =
  let size = 16384 in
  let run ~mapped =
    let base = mem_dev () in
    let dev, reads = counting_reads (if mapped then base else copy_only base) in
    let root = ok (Fs_glue.newfs dev) in
    let f = ok (root.Io_if.d_create "body") in
    let body = Bytes.init size (fun i -> Char.chr ((i * 13) land 0xff)) in
    Alcotest.(check int) "written" size
      (ok (f.Io_if.f_write ~buf:body ~pos:0 ~offset:0 ~amount:size));
    ok (Fs_glue.sync_all root);
    (* Remount: a cold cache. *)
    let fs, root = ok (Fs_glue.mount_fs dev) in
    let f =
      match ok (root.Io_if.d_lookup "body") with
      | Io_if.Node_file f -> f
      | Io_if.Node_dir _ -> Alcotest.fail "body is a directory"
    in
    let fm = ok (Com.query f.Io_if.f_unknown Io_if.filemap_iid) in
    let s0 = Buf.cache_stats fs.Ffs.bc and r0 = !reads and c0 = Cost.counters.Cost.copied_bytes in
    let frags = ok (fm.Io_if.fm_map_blocks ~offset:0 ~amount:size) in
    let s1 = Buf.cache_stats fs.Ffs.bc in
    let got = Buffer.create size in
    List.iter
      (fun fr -> Buffer.add_subbytes got fr.Io_if.fr_data fr.Io_if.fr_off fr.Io_if.fr_len)
      frags;
    Io_if.frags_release frags;
    Alcotest.(check string) "mapped bytes" (Bytes.to_string body) (Buffer.contents got);
    [ !reads - r0; Cost.counters.Cost.copied_bytes - c0; s1.Buf.cs_mapped - s0.Buf.cs_mapped;
      s1.Buf.cs_misses - s0.Buf.cs_misses ]
  in
  Alcotest.(check (list int)) "mapped: bio_reads, copied bytes, adopted, misses" [ 0; 0; 4; 4 ]
    (run ~mapped:true);
  Alcotest.(check (list int)) "copy-only: bio_reads, copied bytes, adopted, misses"
    [ 4; size; 0; 4 ] (run ~mapped:false)

(* getblk_nofill adopts the device page as it stands, so every nofill
   caller must overwrite the whole block: newfs over a device full of
   0xff must leave the same metadata, and the same file system, as over a
   zeroed one. *)
let test_mapped_newfs_over_garbage () =
  let build dev =
    let fs = Ffs.newfs dev in
    let root = Ffs.root fs in
    let d = Ffs.make_dir fs root ~name:"d" in
    let f = Ffs.create_file fs d ~name:"f" in
    let data = Bytes.make 10000 'q' in
    ignore (Ffs.write fs f ~off:0 ~len:10000 ~src:data ~src_pos:0);
    Ffs.sync fs;
    fs
  in
  let zeroed = mem_dev () and garbage = mem_dev () in
  let n = garbage.Io_if.getsize () in
  ignore (ok (garbage.Io_if.bio_write ~buf:(Bytes.make n '\xff') ~pos:0 ~offset:0 ~amount:n));
  let fz = build zeroed and fg = build garbage in
  Alcotest.(check bool) "the garbage device is mapped" true
    ((Buf.cache_stats fg.Ffs.bc).Buf.cs_mapped > 0);
  let meta = fz.Ffs.sb.Ffs.data_start * Ffs.bsize in
  Alcotest.(check string) "superblock, bitmaps and inode table" (String.sub (image zeroed) 0 meta)
    (String.sub (image garbage) 0 meta);
  Alcotest.(check int) "free blocks" (Ffs.free_blocks fz) (Ffs.free_blocks fg);
  List.iter
    (fun dev ->
      Alcotest.(check string) "fsread sees the file" (String.make 10000 'q')
        (Bytes.to_string (ok (Fsread.read_file dev "/d/f"))))
    [ zeroed; garbage ]

(* A device whose size is not a multiple of the page has a short last
   page.  The face refuses it and the miss takes the copy path, which
   reports the short block as it does on any device. *)
let test_mapped_partial_last_page () =
  let dev = Mem_blkio.make ~bytes:((3 * 4096) + 2048) () in
  let bc = Buf.create ~bsize:4096 dev in
  for i = 0 to 2 do
    Buf.brelse (Buf.bread bc i)
  done;
  (match Buf.bread bc 3 with
  | _ -> Alcotest.fail "a short block cannot be read whole"
  | exception Error.Error Error.Io -> ());
  let s = Buf.cache_stats bc in
  Alcotest.(check (list int)) "adopted, refused, device reads" [ 3; 1; 1 ]
    [ s.Buf.cs_mapped; s.Buf.cs_map_refused; s.Buf.cs_reads ]

(* The differential test: one random op sequence on two RAM disks, one
   seen through its mapped face and one through the copy-only view.
   Results, trees and cache hit/miss counts agree after every op, and the
   raw images after every sync.  A remount is a clean unmount (sync) and
   a fresh mount. *)
type xop =
  | X_create of int * int (* directory pick, file pick *)
  | X_write of int * int * int * int (* directory, file, offset, length *)
  | X_truncate of int * int * int
  | X_unlink of int * int
  | X_mkdir of int
  | X_rename of int * int * int * int
  | X_sync
  | X_remount

let show_xop = function
  | X_create (d, f) -> Printf.sprintf "create %d/f%d" d f
  | X_write (d, f, off, len) -> Printf.sprintf "write %d/f%d @%d+%d" d f off len
  | X_truncate (d, f, n) -> Printf.sprintf "truncate %d/f%d %d" d f n
  | X_unlink (d, f) -> Printf.sprintf "unlink %d/f%d" d f
  | X_mkdir d -> Printf.sprintf "mkdir d%d" d
  | X_rename (d, f, d', f') -> Printf.sprintf "rename %d/f%d %d/f%d" d f d' f'
  | X_sync -> "sync"
  | X_remount -> "remount"

let gen_xop =
  QCheck.Gen.(
    let d = int_range 0 2 and f = int_range 0 3 in
    (* Half the writes land past the 12 direct blocks, so indirect
       blocks are allocated, updated after a sync, and evicted. *)
    let off = oneof [ int_range 0 60_000; int_range 49_152 70_000 ] and len = int_range 0 9_000 in
    frequency
      [ 3, map2 (fun a b -> X_create (a, b)) d f;
        6, (fun st -> X_write (d st, f st, off st, len st));
        2, (fun st -> X_truncate (d st, f st, int_range 0 70_000 st));
        2, map2 (fun a b -> X_unlink (a, b)) d f;
        1, map (fun a -> X_mkdir a) (int_range 1 2);
        2, (fun st -> X_rename (d st, f st, d st, f st));
        2, return X_sync;
        1, return X_remount ])

(* Directory 0 is the root, directory [k] is /d[k]. *)
let xdir fs d =
  let root = Ffs.root fs in
  if d = 0 then root
  else
    match Ffs.dir_lookup fs root (Printf.sprintf "d%d" d) with
    | Some (_, ino) -> Ffs.iget fs ino
    | None -> Ffs.fail Error.Noent

let xfile fs d f =
  match Ffs.dir_lookup fs (xdir fs d) (Printf.sprintf "f%d" f) with
  | Some (_, ino) -> Ffs.iget fs ino
  | None -> Ffs.fail Error.Noent

let x_step fs op =
  let fname = Printf.sprintf "f%d" in
  match op with
  | X_create (d, f) -> ignore (Ffs.create_file fs (xdir fs d) ~name:(fname f))
  | X_write (d, f, off, len) ->
      let src = Bytes.init len (fun i -> Char.chr ((off + i + (7 * f)) land 0xff)) in
      ignore (Ffs.write fs (xfile fs d f) ~off ~len ~src ~src_pos:0)
  | X_truncate (d, f, n) -> Ffs.truncate fs (xfile fs d f) n
  | X_unlink (d, f) -> Ffs.unlink fs (xdir fs d) ~name:(fname f)
  | X_mkdir d -> ignore (Ffs.make_dir fs (Ffs.root fs) ~name:(Printf.sprintf "d%d" d))
  | X_rename (d, f, d', f') ->
      Ffs.rename fs (xdir fs d) ~src_name:(fname f) (xdir fs d') ~dst_name:(fname f')
  | X_sync | X_remount -> Ffs.sync fs

(* Every name and every file's bytes, depth first. *)
let tree fs =
  let b = Buffer.create 4096 in
  let rec walk node =
    List.iter
      (fun name ->
        let _, ino = Option.get (Ffs.dir_lookup fs node name) in
        let n = Ffs.iget fs ino in
        Buffer.add_string b (name ^ "\n");
        if n.Ffs.i_kind = Ffs.K_dir then walk n
        else begin
          let data = Bytes.create n.Ffs.i_size in
          ignore (Ffs.read fs n ~off:0 ~len:n.Ffs.i_size ~dst:data ~dst_pos:0);
          Buffer.add_bytes b data
        end)
      (Ffs.dir_entries fs node)
  in
  walk (Ffs.root fs);
  Buffer.contents b

let prop_mapped_vs_copy =
  QCheck.Test.make ~name:"ffs: mapped RAM disk == copy-only view, op by op" ~count:50
    QCheck.(list_of_size Gen.(int_range 20 80) (make ~print:show_xop gen_xop))
    (fun ops ->
      let mdev = mem_dev ~mb:2 () and cdev = copy_only (mem_dev ~mb:2 ()) in
      let mfs = ref (Ffs.newfs mdev) and cfs = ref (Ffs.newfs cdev) in
      let counts fs =
        let s = Buf.cache_stats fs.Ffs.bc in
        s.Buf.cs_hits, s.Buf.cs_misses
      in
      List.iter
        (fun op ->
          let mr = attempt (fun () -> x_step !mfs op) and cr = attempt (fun () -> x_step !cfs op) in
          if mr <> cr then QCheck.Test.fail_reportf "%s: results differ" (show_xop op);
          if op = X_sync || op = X_remount then begin
            if image mdev <> image cdev then
              QCheck.Test.fail_reportf "%s: device images differ" (show_xop op);
            let m = Buf.cache_stats !mfs.Ffs.bc and c = Buf.cache_stats !cfs.Ffs.bc in
            if m.Buf.cs_reads <> 0 || c.Buf.cs_mapped <> 0 || c.Buf.cs_map_refused <> 0 then
              QCheck.Test.fail_reportf "%s: a view took the other's path" (show_xop op)
          end;
          if op = X_remount then begin
            mfs := Ffs.mount mdev;
            cfs := Ffs.mount cdev
          end;
          if tree !mfs <> tree !cfs then QCheck.Test.fail_reportf "%s: trees differ" (show_xop op);
          if counts !mfs <> counts !cfs then
            QCheck.Test.fail_reportf "%s: hit/miss counts differ" (show_xop op))
        ops;
      true)

(* ---- fsread + diskpart over the same image ---- *)

let test_fsread_sees_ffs () =
  let dev = mem_dev () in
  let root = ok (Fs_glue.newfs dev) in
  let env = Posix.create_env () in
  Posix.set_root env (Some root);
  ok (Posix.mkdir env "/boot");
  write_file env "/boot/kernel" "KERNEL-IMAGE-BYTES";
  ok (Fs_glue.sync_all root);
  (* The independent read-only interpreter reads the same device. *)
  Alcotest.(check string) "fsread reads the file" "KERNEL-IMAGE-BYTES"
    (Bytes.to_string (ok (Fsread.read_file dev "/boot/kernel")));
  Alcotest.(check int) "fsread size" 18 (ok (Fsread.file_size dev "/boot/kernel"));
  Alcotest.(check (list string)) "fsread list" [ "kernel" ] (ok (Fsread.list_dir dev "/boot"))

let test_diskpart_and_fs () =
  let dev = mem_dev ~mb:8 () in
  (* Two partitions: 1MB..3MB and 3MB..8MB (in sectors). *)
  ok (Diskpart.write_label dev [ 0xA5, 2048, 4096; 0x83, 6144, 10240 ]);
  let parts = ok (Diskpart.read_partitions dev) in
  Alcotest.(check int) "two partitions" 2 (List.length parts);
  let p1 = List.nth parts 0 and p2 = List.nth parts 1 in
  Alcotest.(check int) "types" 0xA5 p1.Diskpart.p_type;
  Alcotest.(check bool) "active flag" true p1.Diskpart.p_active;
  (* File system on the second partition; first partition untouched. *)
  let sub2 = Diskpart.partition_blkio dev p2 in
  let root = ok (Fs_glue.newfs sub2) in
  let env = Posix.create_env () in
  Posix.set_root env (Some root);
  write_file env "/on-p2" "partitioned";
  ok (Fs_glue.sync_all root);
  Alcotest.(check string) "readable via partition view" "partitioned"
    (Bytes.to_string (ok (Fsread.read_file (Diskpart.partition_blkio dev p2) "/on-p2")));
  (* The MBR must still be intact (the sub-blkio rebases offsets). *)
  let parts' = ok (Diskpart.read_partitions dev) in
  Alcotest.(check int) "label survived" 2 (List.length parts')

let suite =
  [ Alcotest.test_case "create/read/write" `Quick test_create_read_write;
    Alcotest.test_case "directories" `Quick test_directories;
    Alcotest.test_case "big file (indirect)" `Quick test_big_file_indirect;
    Alcotest.test_case "sparse + double indirect" `Quick test_double_indirect;
    Alcotest.test_case "truncate frees blocks" `Quick test_truncate_frees_blocks;
    Alcotest.test_case "unlink frees" `Quick test_unlink_frees;
    Alcotest.test_case "rename across dirs" `Quick test_rename;
    Alcotest.test_case "persistence across remount" `Quick test_persistence_across_remount;
    Alcotest.test_case "error paths" `Quick test_errors;
    Alcotest.test_case "buffer cache" `Quick test_buffer_cache;
    Alcotest.test_case "mapped: cold sendfile reads and copies nothing" `Quick
      test_mapped_sendfile_cold;
    Alcotest.test_case "mapped: newfs over 0xff == over zeros" `Quick
      test_mapped_newfs_over_garbage;
    Alcotest.test_case "mapped: short last page falls back" `Quick test_mapped_partial_last_page;
    QCheck_alcotest.to_alcotest prop_mapped_vs_copy;
    QCheck_alcotest.to_alcotest prop_fs_model;
    Alcotest.test_case "rename onto the same inode" `Quick test_rename_same_inode;
    Alcotest.test_case "rename into own subtree" `Quick test_rename_into_subtree;
    Alcotest.test_case "lookup cost: no copy, a hit a block" `Quick test_lookup_cost;
    QCheck_alcotest.to_alcotest prop_dir_model;
    Alcotest.test_case "fsread over ffs image" `Quick test_fsread_sees_ffs;
    Alcotest.test_case "diskpart + fs + fsread" `Quick test_diskpart_and_fs ]
