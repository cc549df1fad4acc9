(* ixt3 robustness tests (paper §6): each IRON feature absorbing the
   fault class it was built for, plus the scrubber. *)

open Iron_disk
module Fault = Iron_fault.Fault
module Fs = Iron_vfs.Fs
module Errno = Iron_vfs.Errno
module Klog = Iron_vfs.Klog

let check = Alcotest.check

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Errno.to_string e)

let secret = String.init 24000 (fun i -> Char.chr (32 + (i mod 95)))

let fresh brand =
  let d =
    Memdisk.create
      ~params:{ Memdisk.default_params with Memdisk.num_blocks = 2048; seed = 61 }
      ()
  in
  Memdisk.set_time_model d false;
  let inj = Fault.create (Memdisk.dev d) in
  let dev = Fault.dev inj in
  ok (Fs.mkfs brand dev);
  (d, inj, dev, ok (Fs.mount brand dev))

let mkfile (Fs.Boxed ((module F), t)) path content =
  let fd = ok (F.creat t path) in
  ignore (ok (F.write t fd ~off:0 (Bytes.of_string content)));
  ok (F.close t fd)

let readfile (Fs.Boxed ((module F), t)) path =
  let fd = ok (F.open_ t path Fs.Rd) in
  let st = ok (F.stat t path) in
  let data = ok (F.read t fd ~off:0 ~len:st.Fs.st_size) in
  ok (F.close t fd);
  Bytes.to_string data

let seeded brand =
  let d, inj, dev, (Fs.Boxed ((module F), t) as fs) = fresh brand in
  mkfile fs "/precious" secret;
  ok (F.mkdir t "/dir");
  mkfile fs "/dir/inner" "inner";
  ok (F.unmount t);
  (d, inj, dev)

let blocks_labeled d label =
  let cls = Iron_ext3.Classifier.classify (Memdisk.peek d) in
  List.filter (fun b -> cls b = label) (List.init 2048 Fun.id)

let remount_and_read brand dev path =
  let (Fs.Boxed ((module F), t) as fs) = ok (Fs.mount brand dev) in
  let data = readfile fs path in
  ignore (F.klog t);
  (data, Fs.Boxed ((module F), t))

(* --- Mr: metadata replication ----------------------------------------- *)

let test_mr_recovers_itable_read_failure () =
  let brand = Iron_ixt3.Ixt3.brand ~mr:true () in
  let d, inj, dev = seeded brand in
  List.iter
    (fun b -> ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_read)))
    (blocks_labeled d "inode");
  let data, _ = remount_and_read brand dev "/precious" in
  check Alcotest.string "intact via replica" secret data

let test_mr_recovers_dynamic_dir_block () =
  let brand = Iron_ixt3.Ixt3.brand ~mr:true () in
  let d, inj, dev = seeded brand in
  List.iter
    (fun b -> ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_read)))
    (blocks_labeled d "dir");
  let data, _ = remount_and_read brand dev "/dir/inner" in
  check Alcotest.string "dir recovered from shadow" "inner" data

let test_mr_recovers_indirect_block () =
  let brand = Iron_ixt3.Ixt3.brand ~mr:true () in
  let d, inj, dev = seeded brand in
  List.iter
    (fun b -> ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_read)))
    (blocks_labeled d "indirect");
  let data, _ = remount_and_read brand dev "/precious" in
  check Alcotest.string "indirect recovered" secret data

let test_without_mr_metadata_failure_is_fatal () =
  let brand = Iron_ixt3.Ixt3.brand () in
  let d, inj, dev = seeded brand in
  List.iter
    (fun b -> ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_read)))
    (blocks_labeled d "inode");
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount brand dev) in
  match F.stat t "/precious" with
  | Ok _ -> Alcotest.fail "no replica: the failure must surface"
  | Error _ -> ()

(* --- Dp: parity -------------------------------------------------------- *)

let test_dp_reconstructs_lost_data_block () =
  let brand = Iron_ixt3.Ixt3.brand ~dp:true () in
  let d, inj, dev = seeded brand in
  (match blocks_labeled d "data" with
  | b :: _ -> ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_read))
  | [] -> Alcotest.fail "no data blocks");
  let data, _ = remount_and_read brand dev "/precious" in
  check Alcotest.string "reconstructed from parity" secret data

let test_dp_single_failure_per_file_limit () =
  (* One parity block per file: two lost blocks in the same file are
     beyond the design (§6.1 "recover from at most one data-block
     failure in each file"). *)
  let brand = Iron_ixt3.Ixt3.brand ~dp:true () in
  let d, inj, dev = seeded brand in
  (match blocks_labeled d "data" with
  | b1 :: b2 :: _ ->
      ignore (Fault.arm inj (Fault.rule (Fault.Block b1) Fault.Fail_read));
      ignore (Fault.arm inj (Fault.rule (Fault.Block b2) Fault.Fail_read))
  | _ -> Alcotest.fail "need two data blocks");
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount brand dev) in
  let fd = ok (F.open_ t "/precious" Fs.Rd) in
  match F.read t fd ~off:0 ~len:(String.length secret) with
  | Error Errno.EIO -> ()
  | Ok _ -> Alcotest.fail "two failures in one parity group cannot be recovered"
  | Error e -> Alcotest.failf "expected EIO, got %s" (Errno.to_string e)

(* --- Dc: data checksums ------------------------------------------------ *)

let test_dc_detects_silent_corruption () =
  let brand = Iron_ixt3.Ixt3.brand ~dc:true () in
  let d, inj, dev = seeded brand in
  (match blocks_labeled d "data" with
  | b :: _ ->
      ignore
        (Fault.arm inj (Fault.rule (Fault.Block b) (Fault.Corrupt (Fault.Noise 3))))
  | [] -> Alcotest.fail "no data blocks");
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount brand dev) in
  let fd = ok (F.open_ t "/precious" Fs.Rd) in
  (match F.read t fd ~off:0 ~len:(String.length secret) with
  | Error Errno.EIO -> () (* detected, no parity to recover with *)
  | Ok _ -> Alcotest.fail "corruption must not pass silently"
  | Error e -> Alcotest.failf "expected EIO, got %s" (Errno.to_string e));
  let logs = Klog.entries (F.klog t) in
  check Alcotest.bool "mismatch logged" true
    (List.exists
       (fun e ->
         let m = String.lowercase_ascii e.Klog.message in
         let rec find i =
           i + 8 <= String.length m && (String.sub m i 8 = "checksum" || find (i + 1))
         in
         find 0)
       logs)

let test_dc_dp_detect_and_repair_corruption () =
  let brand = Iron_ixt3.Ixt3.brand ~dc:true ~dp:true () in
  let d, inj, dev = seeded brand in
  (match blocks_labeled d "data" with
  | b :: _ ->
      ignore
        (Fault.arm inj (Fault.rule (Fault.Block b) (Fault.Corrupt (Fault.Bit_flip 77))))
  | [] -> Alcotest.fail "no data blocks");
  let data, _ = remount_and_read brand dev "/precious" in
  check Alcotest.string "bit rot detected and repaired" secret data

let test_without_dc_corruption_is_silent () =
  let brand = Iron_ixt3.Ixt3.brand () in
  let d, inj, dev = seeded brand in
  (match blocks_labeled d "data" with
  | b :: _ ->
      ignore
        (Fault.arm inj (Fault.rule (Fault.Block b) (Fault.Corrupt (Fault.Noise 5))))
  | [] -> Alcotest.fail "no data blocks");
  let data, _ = remount_and_read brand dev "/precious" in
  check Alcotest.bool "garbage returned without checksums" false
    (String.equal data secret)

(* --- Mc: metadata checksums ------------------------------------------- *)

let test_mc_mr_recover_corrupt_inode_block () =
  let brand = Iron_ixt3.Ixt3.brand ~mc:true ~mr:true () in
  let d, inj, dev = seeded brand in
  let tweak = Option.get (Iron_ext3.Classifier.corrupt_field "inode") in
  List.iter
    (fun b ->
      ignore
        (Fault.arm inj (Fault.rule (Fault.Block b) (Fault.Corrupt (Fault.Tweak tweak)))))
    (blocks_labeled d "inode");
  let data, _ = remount_and_read brand dev "/precious" in
  check Alcotest.string "plausible-but-wrong inode caught by checksum" secret data

(* --- Tc: transactional checksums --------------------------------------- *)

let test_tc_rejects_corrupt_journal_payload () =
  let brand = Iron_ixt3.Ixt3.brand ~tc:true () in
  let d, inj, dev, (Fs.Boxed ((module F), t) as fs) = fresh brand in
  ignore inj;
  mkfile fs "/committed" "safe";
  let fd = ok (F.open_ t "/committed" Fs.Rd) in
  ok (F.fsync t fd);
  mkfile fs "/in-journal" "poisoned";
  let fd2 = ok (F.open_ t "/in-journal" Fs.Rd) in
  ok (F.fsync t fd2);
  (* Crash; corrupt one journaled copy of the second transaction. Only
     blocks actually written to the log qualify (unused journal space
     also presents as j-data). *)
  let cls = Iron_ext3.Classifier.classify (Memdisk.peek d) in
  let written b =
    let buf = Memdisk.peek d b in
    let rec nonzero i = i < Bytes.length buf && (Bytes.get buf i <> '\000' || nonzero (i + 1)) in
    nonzero 0
  in
  let jdata =
    List.filter (fun b -> cls b = "j-data" && written b) (List.init 200 Fun.id)
  in
  (match List.rev jdata with
  | last :: _ ->
      let buf = Memdisk.peek d last in
      Bytes.set buf 17 '\xFF';
      Memdisk.poke d last buf
  | [] -> Alcotest.fail "no journaled data");
  let (Fs.Boxed ((module F2), t2)) = ok (Fs.mount brand dev) in
  let logs = Klog.entries (F2.klog t2) in
  check Alcotest.bool "transactional checksum caught it" true
    (List.exists
       (fun e ->
         let m = String.lowercase_ascii e.Klog.message in
         let rec find i =
           i + 13 <= String.length m
           && (String.sub m i 13 = "transactional" || find (i + 1))
         in
         find 0)
       logs)

let test_without_tc_corrupt_journal_replays_silently () =
  let brand = Iron_ixt3.Ixt3.brand () in
  let d, _, dev, (Fs.Boxed ((module F), t) as fs) = fresh brand in
  mkfile fs "/x" "x";
  let fd = ok (F.open_ t "/x" Fs.Rd) in
  ok (F.fsync t fd);
  let cls = Iron_ext3.Classifier.classify (Memdisk.peek d) in
  let jdata = List.filter (fun b -> cls b = "j-data") (List.init 200 Fun.id) in
  (match jdata with
  | b :: _ ->
      let buf = Memdisk.peek d b in
      Bytes.set buf 40 '\xEE';
      Memdisk.poke d b buf
  | [] -> Alcotest.fail "no journaled data");
  match Fs.mount brand dev with
  | Ok (Fs.Boxed ((module F2), t2)) ->
      let logs = Klog.entries (F2.klog t2) in
      check Alcotest.bool "replayed without complaint" false
        (List.exists (fun e -> e.Klog.level = Klog.Error) logs)
  | Error _ -> Alcotest.fail "replay is blind without Tc; mount proceeds"

(* --- super copies ------------------------------------------------------ *)

let test_super_recovered_from_copies () =
  let brand = Iron_ixt3.Ixt3.brand ~mr:true () in
  let d, inj, dev = seeded brand in
  ignore d;
  ignore (Fault.arm inj (Fault.rule (Fault.Block 0) Fault.Fail_read));
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount brand dev) in
  ignore (F.klog t);
  let fs = Fs.Boxed ((module F), t) in
  check Alcotest.string "mounted via copy, data fine" secret (readfile fs "/precious")

(* --- all features, all fault classes ----------------------------------- *)

let test_full_ixt3_survives_everything_at_once () =
  let brand = Iron_ixt3.Ixt3.full in
  let d, inj, dev = seeded brand in
  (match blocks_labeled d "data" with
  | b :: _ -> ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_read))
  | [] -> ());
  (match blocks_labeled d "inode" with
  | b :: _ -> ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_read))
  | [] -> ());
  (match blocks_labeled d "dir" with
  | b :: _ ->
      ignore
        (Fault.arm inj (Fault.rule (Fault.Block b) (Fault.Corrupt (Fault.Noise 9))))
  | [] -> ());
  let data, _ = remount_and_read brand dev "/precious" in
  check Alcotest.string "all at once" secret data

(* --- Rm: remap-on-write-failure (extension, RRemap of 3.3) ------------- *)

let test_rm_relocates_failed_write () =
  let brand = Iron_ixt3.Ixt3.brand ~rm:true () in
  let d, inj, dev, (Fs.Boxed ((module F), t) as fs) = fresh brand in
  mkfile fs "/moveme" (String.make 9000 'm');
  ok (F.sync t);
  (* The file's first data block becomes unwritable (reads still work,
     as with a worn sector that only rejects writes). *)
  let b = List.hd (blocks_labeled d "data") in
  ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_write));
  let fd = ok (F.open_ t "/moveme" Fs.Rdwr) in
  let n = ok (F.write t fd ~off:0 (Bytes.of_string "RELOCATED")) in
  check Alcotest.int "write succeeds via remap" 9 n;
  ok (F.close t fd);
  check Alcotest.bool "not read-only" false (F.is_readonly t);
  ok (F.sync t);
  ok (F.unmount t);
  (* After remount the data comes from the new location. *)
  let (Fs.Boxed ((module F2), t2) as fs2) = ok (Fs.mount brand dev) in
  ignore (F2.klog t2);
  let s = readfile fs2 "/moveme" in
  check Alcotest.string "new contents" "RELOCATED" (String.sub s 0 9);
  check Alcotest.string "rest intact" (String.make 100 'm') (String.sub s 9 100);
  (* And the event is in the log for the fingerprinting engine. *)
  let logs = Klog.entries (F.klog t) in
  check Alcotest.bool "remap logged" true
    (List.exists
       (fun e ->
         let m = String.lowercase_ascii e.Klog.message in
         let rec find i =
           i + 8 <= String.length m && (String.sub m i 8 = "remapped" || find (i + 1))
         in
         find 0)
       logs)

let test_without_rm_write_failure_aborts () =
  let brand = Iron_ixt3.Ixt3.brand () in
  let d, inj, _, (Fs.Boxed ((module F), t) as fs) = fresh brand in
  mkfile fs "/stuck" (String.make 9000 's');
  ok (F.sync t);
  let b = List.hd (blocks_labeled d "data") in
  ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_write));
  let fd = ok (F.open_ t "/stuck" Fs.Rdwr) in
  (match F.write t fd ~off:0 (Bytes.of_string "X") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "without Rm the write failure must surface");
  check Alcotest.bool "aborted read-only" true (F.is_readonly t)

let test_rm_fsck_clean_after_remap () =
  let brand = Iron_ixt3.Ixt3.brand ~rm:true () in
  let d, inj, dev, (Fs.Boxed ((module F), t) as fs) = fresh brand in
  mkfile fs "/fm" (String.make 5000 'f');
  ok (F.sync t);
  let b = List.hd (blocks_labeled d "data") in
  ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_write));
  let fd = ok (F.open_ t "/fm" Fs.Rdwr) in
  ignore (ok (F.write t fd ~off:0 (Bytes.of_string "Y")));
  ok (F.close t fd);
  ok (F.unmount t);
  Fault.disarm_all inj;
  let r = ok (Iron_ext3.Fsck.run dev) in
  check Alcotest.bool "volume consistent after remap" true r.Iron_ext3.Fsck.clean;
  check Alcotest.int "no leaks either" 0 (List.length r.Iron_ext3.Fsck.findings)

(* --- scrubbing ---------------------------------------------------------- *)

let test_scrub_clean_volume () =
  let brand = Iron_ixt3.Ixt3.full in
  let _, _, dev = seeded brand in
  let r = ok (Iron_ixt3.Scrub.run Iron_ext3.Profile.ixt3 dev) in
  check Alcotest.int "no latent errors" 0 r.Iron_ixt3.Scrub.latent_errors;
  check Alcotest.int "no corruption" 0 r.Iron_ixt3.Scrub.corrupt;
  check Alcotest.int "nothing unrecoverable" 0 r.Iron_ixt3.Scrub.unrecoverable

let test_scrub_finds_and_repairs_latent_error () =
  let brand = Iron_ixt3.Ixt3.full in
  let d, inj, dev = seeded brand in
  (match blocks_labeled d "data" with
  | b :: _ ->
      ignore
        (Fault.arm inj
           (Fault.rule ~persistence:Fault.Until_write (Fault.Block b) Fault.Fail_read))
  | [] -> Alcotest.fail "no data blocks");
  let r = ok (Iron_ixt3.Scrub.run Iron_ext3.Profile.ixt3 dev) in
  check Alcotest.int "one latent error" 1 r.Iron_ixt3.Scrub.latent_errors;
  check Alcotest.bool "repaired" true (r.Iron_ixt3.Scrub.repaired >= 1);
  check Alcotest.int "none unrecoverable" 0 r.Iron_ixt3.Scrub.unrecoverable;
  (* The repaired volume reads back perfectly. *)
  let data, _ = remount_and_read brand dev "/precious" in
  check Alcotest.string "post-repair content" secret data

let test_scrub_finds_silent_corruption () =
  let brand = Iron_ixt3.Ixt3.full in
  let d, _, dev = seeded brand in
  (match blocks_labeled d "data" with
  | b :: _ ->
      let buf = Memdisk.peek d b in
      Bytes.set buf 123 '\x7F';
      Memdisk.poke d b buf
  | [] -> Alcotest.fail "no data blocks");
  let r = ok (Iron_ixt3.Scrub.run Iron_ext3.Profile.ixt3 dev) in
  check Alcotest.bool "corruption found eagerly" true (r.Iron_ixt3.Scrub.corrupt >= 1);
  check Alcotest.int "repaired from parity" 0 r.Iron_ixt3.Scrub.unrecoverable

(* --- verify-once metadata checksums ---------------------------------- *)

module Obs = Iron_obs.Obs
module Layout = Iron_ext3.Layout

let counter obs name =
  match List.assoc_opt name (Obs.snapshot obs) with
  | Some (Obs.Counter n) -> n
  | Some _ | None -> 0

(* (digests computed, reads served by a verified cache entry) while
   running [f]. *)
let cksum_counts f =
  let obs = Obs.create () in
  Obs.with_ambient obs f;
  (counter obs "ixt3.cksum.verified", counter obs "ixt3.cksum.reused")

let log_count (Fs.Boxed ((module F), t)) needle =
  let n = String.length needle in
  List.length
    (List.filter
       (fun e ->
         let m = e.Klog.message in
         let rec find i =
           i + n <= String.length m
           && (String.sub m i n = needle || find (i + 1))
         in
         find 0)
       (Klog.entries (F.klog t)))

(* /d/f on a fresh volume, then a fresh mount of it (empty cache, no
   digests loaded). Returns the disk, injector, device, mount, and the
   block holding /d/f's inode. *)
let with_dfile ?(extra = fun _ -> ()) brand =
  let d, inj, dev, (Fs.Boxed ((module F), t) as fs) = fresh brand in
  ok (F.mkdir t "/d");
  mkfile fs "/d/f" "payload";
  extra fs;
  ok (F.unmount t);
  let (Fs.Boxed ((module F), t) as fs) = ok (Fs.mount brand dev) in
  let ino = (ok (F.stat t "/d/f")).Fs.st_ino in
  let lay = Iron_ext3.Ext3.layout_of_dev dev in
  (d, inj, dev, fs, lay, Layout.inode_location lay ino)

let stat_read (Fs.Boxed ((module F), t) as fs) =
  ignore (ok (F.stat t "/d/f"));
  readfile fs "/d/f"

let test_cksum_counters_pinned () =
  let brand = Iron_ixt3.Ixt3.full in
  let d, inj, dev, (Fs.Boxed ((module F), t) as fs) = fresh brand in
  ignore (d, inj);
  ok (F.mkdir t "/d");
  mkfile fs "/d/f" "payload";
  ok (F.unmount t);
  let fs = ok (Fs.mount brand dev) in
  let round () =
    cksum_counts (fun () ->
        check Alcotest.string "contents" "payload" (stat_read fs))
  in
  let pair = Alcotest.(pair int int) in
  (* 23 checksummed reads a round. The first hashes each distinct block
     once (the inode-table block, the two directory blocks, the data
     block); every later read is served by its verified cache entry. *)
  check pair "first round (verified, reused)" (4, 19) (round ());
  check pair "second round (verified, reused)" (0, 23) (round ())

let test_refilled_corrupt_block_caught () =
  let brand = Iron_ixt3.Ixt3.brand ~mc:true ~mr:true () in
  (* More blocks than the 512-block cache: reading it evicts the rest. *)
  let evictor fs = mkfile fs "/big" (String.make (600 * 4096) 'b') in
  let d, _, _, fs, _, (blk, _) = with_dfile ~extra:evictor brand in
  let _, reused = cksum_counts (fun () -> ignore (stat_read fs)) in
  check Alcotest.bool "inode block verified and reused" true (reused > 0);
  let buf = Memdisk.peek d blk in
  (Option.get (Iron_ext3.Classifier.corrupt_field "inode")) buf;
  Memdisk.poke d blk buf;
  check Alcotest.int "big file read" (600 * 4096)
    (String.length (readfile fs "/big"));
  check Alcotest.string "served from the replica" "payload" (stat_read fs);
  let logged fmt = log_count fs (Printf.sprintf fmt blk) > 0 in
  check Alcotest.bool "refilled block caught" true
    (logged "checksum mismatch on metadata block %d");
  check Alcotest.bool "replica used" true
    (logged "metadata block %d recovered from replica")

let test_rewrite_forces_one_fresh_hash () =
  let brand = Iron_ixt3.Ixt3.full in
  let _, _, _, (Fs.Boxed ((module F), t) as fs), _, _ = with_dfile brand in
  ignore (stat_read fs);
  ok (F.chmod t "/d/f" 0o600);
  ok (F.sync t);
  let v1, _ = cksum_counts (fun () -> ignore (ok (F.stat t "/d/f"))) in
  let v2, r2 = cksum_counts (fun () -> ignore (ok (F.stat t "/d/f"))) in
  check Alcotest.int "rewritten inode block hashed once" 1 v1;
  check Alcotest.int "then reused" 0 v2;
  check Alcotest.bool "reused reads" true (r2 > 0);
  check Alcotest.int "new mode visible" 0o600
    ((ok (F.stat t "/d/f")).Fs.st_mode land 0o777)

let test_failed_table_read_not_remembered () =
  let brand = Iron_ixt3.Ixt3.full in
  let d, inj, dev, Fs.Boxed ((module F), t), lay, (blk, _) = with_dfile brand in
  (* The mount above already verified [blk]; start over on a fresh
     mount so its digest is not loaded. *)
  ok (F.unmount t);
  (* Corrupt a free inode slot of the block: harmless to the decoders,
     so only the checksum can tell. *)
  let buf = Memdisk.peek d blk in
  let last = (lay.Layout.inodes_per_block - 1) * lay.Layout.inode_size in
  check Alcotest.char "slot is free" '\000' (Bytes.get buf last);
  Bytes.set buf (last + 8) '\x55';
  Memdisk.poke d blk buf;
  let cb, _ = Layout.cksum_location lay blk in
  (* A fault on the checksum table that later clears. *)
  let rid = Fault.arm inj (Fault.rule (Fault.Block cb) Fault.Fail_read) in
  let fs = ok (Fs.mount brand dev) in
  let mismatch = Printf.sprintf "checksum mismatch on metadata block %d" blk in
  check Alcotest.string "unverifiable read served" "payload" (stat_read fs);
  check Alcotest.int "nothing to compare against yet" 0 (log_count fs mismatch);
  Fault.disarm inj rid;
  check Alcotest.string "replica served" "payload" (stat_read fs);
  check Alcotest.bool "corrupt primary caught" true (log_count fs mismatch > 0)

let test_agreeing_copies_log_every_read () =
  let brand = Iron_ixt3.Ixt3.full in
  let d, _, dev, (Fs.Boxed ((module F), t)), lay, (blk, _) = with_dfile brand in
  ok (F.unmount t);
  (* Stale the stored digest: primary and replica still agree. *)
  let cb, off = Layout.cksum_location lay blk in
  let buf = Memdisk.peek d cb in
  Bytes.set buf off (Char.chr (Char.code (Bytes.get buf off) lxor 0xFF));
  Memdisk.poke d cb buf;
  let fs = ok (Fs.mount brand dev) in
  let agree = "primary and replica agree" in
  check Alcotest.string "first read" "payload" (stat_read fs);
  let n1 = log_count fs agree in
  check Alcotest.bool "logged" true (n1 > 0);
  check Alcotest.string "second read" "payload" (stat_read fs);
  check Alcotest.int "logged again, never marked" (2 * n1) (log_count fs agree)

(* --- feature matrix sanity -------------------------------------------- *)

let test_all_32_variants_mount_and_work () =
  List.iter
    (fun (profile, brand) ->
      let _, _, _, (Fs.Boxed ((module F), t) as fs) = fresh brand in
      mkfile fs "/v" "variant";
      let got = readfile fs "/v" in
      if not (String.equal got "variant") then
        Alcotest.failf "variant %s broken"
          (Iron_ext3.Profile.variant_label profile);
      ok (F.unmount t))
    Iron_ixt3.Ixt3.all_variants

let suites =
  [
    ( "ixt3.verify-once",
      [
        Alcotest.test_case "counters pinned" `Quick test_cksum_counters_pinned;
        Alcotest.test_case "refilled corrupt block caught" `Quick
          test_refilled_corrupt_block_caught;
        Alcotest.test_case "rewrite forces one fresh hash" `Quick
          test_rewrite_forces_one_fresh_hash;
        Alcotest.test_case "failed table read not remembered" `Quick
          test_failed_table_read_not_remembered;
        Alcotest.test_case "agreeing copies log every read" `Quick
          test_agreeing_copies_log_every_read;
      ] );
    ( "ixt3.replication",
      [
        Alcotest.test_case "Mr recovers inode-table read failure" `Quick
          test_mr_recovers_itable_read_failure;
        Alcotest.test_case "Mr recovers directory block" `Quick
          test_mr_recovers_dynamic_dir_block;
        Alcotest.test_case "Mr recovers indirect block" `Quick
          test_mr_recovers_indirect_block;
        Alcotest.test_case "without Mr it is fatal" `Quick
          test_without_mr_metadata_failure_is_fatal;
        Alcotest.test_case "super recovered from copies" `Quick
          test_super_recovered_from_copies;
      ] );
    ( "ixt3.parity",
      [
        Alcotest.test_case "Dp reconstructs lost block" `Quick
          test_dp_reconstructs_lost_data_block;
        Alcotest.test_case "one failure per file limit" `Quick
          test_dp_single_failure_per_file_limit;
      ] );
    ( "ixt3.checksums",
      [
        Alcotest.test_case "Dc detects silent corruption" `Quick
          test_dc_detects_silent_corruption;
        Alcotest.test_case "Dc+Dp detect and repair" `Quick
          test_dc_dp_detect_and_repair_corruption;
        Alcotest.test_case "without Dc corruption is silent" `Quick
          test_without_dc_corruption_is_silent;
        Alcotest.test_case "Mc+Mr recover corrupt inode block" `Quick
          test_mc_mr_recover_corrupt_inode_block;
      ] );
    ( "ixt3.txn-checksums",
      [
        Alcotest.test_case "Tc rejects corrupt journal payload" `Quick
          test_tc_rejects_corrupt_journal_payload;
        Alcotest.test_case "without Tc replay is blind" `Quick
          test_without_tc_corrupt_journal_replays_silently;
      ] );
    ( "ixt3.combined",
      [
        Alcotest.test_case "full ixt3 survives everything" `Quick
          test_full_ixt3_survives_everything_at_once;
        Alcotest.test_case "all 32 variants work" `Quick
          test_all_32_variants_mount_and_work;
      ] );
    ( "ixt3.remap",
      [
        Alcotest.test_case "Rm relocates failed write" `Quick
          test_rm_relocates_failed_write;
        Alcotest.test_case "without Rm the abort stands" `Quick
          test_without_rm_write_failure_aborts;
        Alcotest.test_case "fsck clean after remap" `Quick
          test_rm_fsck_clean_after_remap;
      ] );
    ( "ixt3.scrub",
      [
        Alcotest.test_case "clean volume" `Quick test_scrub_clean_volume;
        Alcotest.test_case "finds and repairs latent error" `Quick
          test_scrub_finds_and_repairs_latent_error;
        Alcotest.test_case "finds silent corruption" `Quick
          test_scrub_finds_silent_corruption;
      ] );
  ]
