(* Tests for the offline checker/repairer (RRepair, §3.3). *)

open Iron_disk
module Fs = Iron_vfs.Fs
module Errno = Iron_vfs.Errno
module Fsck = Iron_ext3.Fsck
module Layout = Iron_ext3.Layout
module Inode = Iron_ext3.Inode
module Fault = Iron_fault.Fault

let check = Alcotest.check

(* Deterministic: the whole suite replays bit-for-bit. *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 5231 |]) t

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Errno.to_string e)

let names entries =
  List.filter_map
    (fun (n, _) -> if n = "." || n = ".." then None else Some n)
    entries

let built () =
  let d = Memdisk.create () in
  Memdisk.set_time_model d false;
  let dev = Memdisk.dev d in
  ok (Fs.mkfs Iron_ext3.Ext3.std dev);
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount Iron_ext3.Ext3.std dev) in
  let fd = ok (F.creat t "/file") in
  ignore (ok (F.write t fd ~off:0 (Bytes.make 20000 'f')));
  ok (F.close t fd);
  ok (F.mkdir t "/dir");
  let fd = ok (F.creat t "/dir/nested") in
  ignore (ok (F.write t fd ~off:0 (Bytes.of_string "n")));
  ok (F.close t fd);
  ok (F.unmount t);
  (d, dev)

let test_clean_volume_is_clean () =
  let _, dev = built () in
  let r = ok (Fsck.run dev) in
  check Alcotest.bool "clean" true r.Fsck.clean;
  check Alcotest.int "no findings" 0 (List.length r.Fsck.findings)

let test_detects_and_repairs_leak () =
  let d, dev = built () in
  let lay = Iron_ext3.Ext3.layout_of_dev dev in
  let bb = Layout.bitmap_block lay 2 in
  let buf = Memdisk.peek d bb in
  Bytes.set buf 0 '\x0F' (* four stray bits *);
  Memdisk.poke d bb buf;
  let r = ok (Fsck.run dev) in
  check Alcotest.bool "still 'clean' (leaks are warnings)" true r.Fsck.clean;
  check Alcotest.int "four leaks found" 4 (List.length r.Fsck.findings);
  let r = ok (Fsck.run ~repair:true dev) in
  check Alcotest.bool "repaired" true
    (List.for_all (fun f -> f.Fsck.repaired) r.Fsck.findings);
  let r = ok (Fsck.run dev) in
  check Alcotest.int "clean after repair" 0 (List.length r.Fsck.findings)

let test_detects_missing_allocation () =
  let d, dev = built () in
  let lay = Iron_ext3.Ext3.layout_of_dev dev in
  (* Clear the whole group-0 bitmap: every used block becomes an error. *)
  let bb = Layout.bitmap_block lay 0 in
  Memdisk.poke d bb (Bytes.make 4096 '\000');
  let r = ok (Fsck.run dev) in
  check Alcotest.bool "not clean" false r.Fsck.clean;
  let r = ok (Fsck.run ~repair:true dev) in
  ignore r;
  let r = ok (Fsck.run dev) in
  check Alcotest.bool "clean after repair" true r.Fsck.clean

let test_detects_dangling_dirent () =
  let d, dev = built () in
  (* Kill /dir/nested's inode behind the directory's back. *)
  let lay = Iron_ext3.Ext3.layout_of_dev dev in
  let cls = Iron_ext3.Classifier.classify (Memdisk.peek d) in
  let itable = List.filter (fun b -> cls b = "inode") (List.init 2048 Fun.id) in
  let victim_block = List.hd itable in
  let buf = Memdisk.peek d victim_block in
  (* Find the nested file's slot: the last allocated non-directory. *)
  let last_file = ref (-1) in
  for slot = 0 to (4096 / 128) - 1 do
    let i = Inode.decode lay buf (slot * 128) in
    if i.Inode.kind = Inode.Regular then last_file := slot
  done;
  check Alcotest.bool "found a file slot" true (!last_file >= 0);
  Inode.encode lay (Inode.empty lay) buf (!last_file * 128);
  Memdisk.poke d victim_block buf;
  let dangling (r : Fsck.report) =
    List.filter
      (fun f ->
        let m = f.Fsck.message in
        let rec find i =
          i + 4 <= String.length m && (String.sub m i 4 = "dead" || find (i + 1))
        in
        find 0)
      r.Fsck.findings
  in
  let r = ok (Fsck.run dev) in
  check Alcotest.int "dangling entry reported" 1 (List.length (dangling r));
  check Alcotest.bool "not clean" false r.Fsck.clean;
  (* Repair drops the entry from the directory block on disk... *)
  let r = ok (Fsck.run ~repair:true dev) in
  check Alcotest.bool "repair reports clean" true r.Fsck.clean;
  check Alcotest.bool "entry marked repaired" true
    (List.for_all (fun f -> f.Fsck.repaired) (dangling r));
  (* ...so a fresh check finds nothing, and the name is gone. *)
  let r = ok (Fsck.run dev) in
  check Alcotest.int "no findings after repair" 0 (List.length r.Fsck.findings);
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount Iron_ext3.Ext3.std dev) in
  check Alcotest.(list string) "entry dropped" [] (names (ok (F.getdirentries t "/dir")));
  ok (F.unmount t)

let test_detects_wrong_linkcount () =
  let d, dev = built () in
  let lay = Iron_ext3.Ext3.layout_of_dev dev in
  let cls = Iron_ext3.Classifier.classify (Memdisk.peek d) in
  let itable = List.hd (List.filter (fun b -> cls b = "inode") (List.init 2048 Fun.id)) in
  let buf = Memdisk.peek d itable in
  let fixed = ref false in
  for slot = 0 to (4096 / 128) - 1 do
    let i = Inode.decode lay buf (slot * 128) in
    if i.Inode.kind = Inode.Regular && not !fixed then begin
      Inode.encode lay { i with Inode.links = 9 } buf (slot * 128);
      fixed := true
    end
  done;
  Memdisk.poke d itable buf;
  let r = ok (Fsck.run dev) in
  check Alcotest.bool "link count error" false r.Fsck.clean;
  let _ = ok (Fsck.run ~repair:true dev) in
  let r = ok (Fsck.run dev) in
  check Alcotest.bool "clean after repair" true r.Fsck.clean

let test_works_on_ixt3_volumes () =
  let d = Memdisk.create () in
  Memdisk.set_time_model d false;
  let dev = Memdisk.dev d in
  ok (Fs.mkfs Iron_ixt3.Ixt3.full dev);
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount Iron_ixt3.Ixt3.full dev) in
  let fd = ok (F.creat t "/p") in
  ignore (ok (F.write t fd ~off:0 (Bytes.make 9000 'p')));
  ok (F.close t fd);
  ok (F.unmount t);
  let r = ok (Fsck.run dev) in
  (* Parity blocks are reachable through the inode, so an ixt3 volume
     checks clean too. *)
  check Alcotest.bool "ixt3 volume clean" true r.Fsck.clean;
  check Alcotest.int "no findings" 0 (List.length r.Fsck.findings)

(* A file past the double-indirect range: 4 direct + 16 + 256 blocks
   cover 276, so 342 blocks put 66 of them under the triple-indirect
   tree. Every one of them is reachable; none may be reported as a leak
   (and so freed by repair). *)
let test_triple_indirect_file () =
  let d = Memdisk.create () in
  Memdisk.set_time_model d false;
  let dev = Memdisk.dev d in
  ok (Fs.mkfs Iron_ext3.Ext3.std dev);
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount Iron_ext3.Ext3.std dev) in
  let fd = ok (F.creat t "/huge") in
  ignore (ok (F.write t fd ~off:0 (Bytes.make (342 * 4096) 'h')));
  ok (F.close t fd);
  ok (F.unmount t);
  let lay = Iron_ext3.Ext3.layout_of_dev dev in
  let blk, off = Layout.inode_location lay Layout.first_free_ino in
  let i = Inode.decode lay (Memdisk.peek d blk) off in
  check Alcotest.bool "file uses its triple-indirect tree" true (i.Inode.tind > 0);
  let r = ok (Fsck.run ~repair:true dev) in
  check Alcotest.int "no findings" 0 (List.length r.Fsck.findings);
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount Iron_ext3.Ext3.std dev) in
  let fd = ok (F.open_ t "/huge" Fs.Rd) in
  let back = ok (F.read t fd ~off:(341 * 4096) ~len:4096) in
  check Alcotest.bool "last block intact" true (Bytes.equal back (Bytes.make 4096 'h'));
  ok (F.close t fd);
  ok (F.unmount t)

(* A directory whose entries spill into its indirect blocks: 200
   entries of 129 bytes need 7 blocks, 3 of them past the 4 direct
   pointers. Every entry there is a reference like any other. *)
let test_directory_beyond_direct_blocks () =
  let d = Memdisk.create () in
  Memdisk.set_time_model d false;
  let dev = Memdisk.dev d in
  ok (Fs.mkfs Iron_ext3.Ext3.std dev);
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount Iron_ext3.Ext3.std dev) in
  ok (F.mkdir t "/big");
  for k = 0 to 199 do
    let name = Printf.sprintf "%03d%s" k (String.make 120 'n') in
    ok (F.close t (ok (F.creat t ("/big/" ^ name))))
  done;
  ok (F.unmount t);
  let r = ok (Fsck.run ~repair:true dev) in
  check Alcotest.int "no findings" 0 (List.length r.Fsck.findings);
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount Iron_ext3.Ext3.std dev) in
  let st = ok (F.stat t "/big") in
  check Alcotest.bool "directory spans more than 4 blocks" true
    (st.Fs.st_size > 4 * 4096);
  check Alcotest.int "all entries survive" 200
    (List.length (names (ok (F.getdirentries t "/big"))));
  ok (F.unmount t)

(* Pass 1 decodes only slots whose kind byte is 1..3 ([Inode.kind_at]
   reads every other byte as [Free]). A live slot whose kind byte goes
   bad must read exactly like a zeroed slot, whatever its other fields
   hold, and garbage in a free slot must go unnoticed. *)
let test_unknown_kind_is_free () =
  let findings_with mutate =
    let d, dev = built () in
    let lay = Iron_ext3.Ext3.layout_of_dev dev in
    let blk, off = Layout.inode_location lay Layout.first_free_ino in
    let buf = Memdisk.peek d blk in
    mutate lay buf off;
    Memdisk.poke d blk buf;
    (ok (Fsck.run dev)).Fsck.findings
  in
  let zeroed = findings_with (fun lay buf off -> Inode.encode lay (Inode.empty lay) buf off) in
  check Alcotest.bool "losing /file is noticed" true (zeroed <> []);
  List.iter
    (fun code ->
      let got = findings_with (fun _ buf off -> Bytes.set buf off (Char.chr code)) in
      check Alcotest.bool (Printf.sprintf "kind byte %d reads as free" code) true
        (got = zeroed))
    [ 0; 4; 0x80; 0xFF ];
  (* A never-used slot full of garbage under a non-kind byte. *)
  let d, dev = built () in
  let lay = Iron_ext3.Ext3.layout_of_dev dev in
  let blk, off = Layout.inode_location lay 50 in
  let buf = Memdisk.peek d blk in
  Bytes.fill buf off lay.Layout.inode_size '\xA7';
  Memdisk.poke d blk buf;
  check Alcotest.int "garbage free slot ignored" 0
    (List.length (ok (Fsck.run dev)).Fsck.findings)

(* A failed inode-table read is not cached: every slot of the block
   retries it and reports it. Findings and device reads are pinned. *)
let test_unreadable_inode_table () =
  let run persistence =
    let _, dev = built () in
    let lay = Iron_ext3.Ext3.layout_of_dev dev in
    let itb = Layout.itable_block lay 0 in
    let inj = Fault.create dev in
    ignore (Fault.arm inj (Fault.rule ~persistence (Fault.Block itb) Fault.Fail_read));
    let r = ok (Fsck.run (Fault.dev inj)) in
    let reads =
      List.filter (fun e -> e.Fault.dir = Fault.Read) (Fault.trace inj)
    in
    let of_itb = List.filter (fun e -> e.Fault.block = itb) reads in
    let unreadable =
      List.filter
        (fun f -> f.Fsck.message = Printf.sprintf "inode table block %d unreadable" itb)
        r.Fsck.findings
    in
    (r, List.length reads, List.length of_itb, List.length unreadable)
  in
  let r, reads, of_itb, unreadable = run Fault.Sticky in
  check Alcotest.bool "not clean" false r.Fsck.clean;
  check Alcotest.int "one report per slot" 32 unreadable;
  check Alcotest.int "one read per slot" 32 of_itb;
  check Alcotest.int "findings" 45 (List.length r.Fsck.findings);
  check Alcotest.int "device reads" 76 reads;
  let r, reads, of_itb, unreadable = run (Fault.Transient 1) in
  check Alcotest.int "one transient report" 1 unreadable;
  check Alcotest.int "retried once" 2 of_itb;
  check Alcotest.int "findings" 1 (List.length r.Fsck.findings);
  check Alcotest.int "device reads" 49 reads

(* Random bit flips in the block and inode bitmaps of every group,
   weighted towards each group's last (partial) data byte. On a clean
   volume the bitmaps equal reality, so every flipped bit inside the
   data range predicts exactly one finding, in ascending block (then
   inode) order per group; padding bits and inode 1 predict none.
   Repair must leave nothing for a second check to find. *)
let prop_bitmap_flips =
  let d, dev = built () in
  let lay = Iron_ext3.Ext3.layout_of_dev dev in
  let ng = lay.Layout.ngroups in
  let dpg = Layout.data_blocks_per_group lay in
  let ipg = lay.Layout.inodes_per_group in
  let gbits = (dpg + 7) / 8 * 8 in
  let orig_bb = Array.init ng (fun g -> Memdisk.peek d (Layout.bitmap_block lay g)) in
  let orig_ib = Array.init ng (fun g -> Memdisk.peek d (Layout.ibitmap_block lay g)) in
  let bit buf i = Char.code (Bytes.get buf (i / 8)) land (1 lsl (i mod 8)) <> 0 in
  let flip buf i =
    Bytes.set buf (i / 8)
      (Char.chr (Char.code (Bytes.get buf (i / 8)) lxor (1 lsl (i mod 8))))
  in
  let gen_flip =
    QCheck.Gen.(
      let* g = int_bound (ng - 1) in
      oneof
        [
          map (fun i -> (g, `Block, i)) (int_bound (gbits - 1));
          map (fun i -> (g, `Block, i)) (int_range (gbits - 8) (gbits - 1));
          map (fun i -> (g, `Inode, i)) (int_bound (ipg - 1));
        ])
  in
  let print (g, which, i) =
    Printf.sprintf "(%d,%s,%d)" g (match which with `Block -> "b" | `Inode -> "i") i
  in
  QCheck.Test.make ~name:"ext3.fsck bitmap flips: predicted findings, clean after repair"
    ~count:150
    (QCheck.make ~print:QCheck.Print.(list print) QCheck.Gen.(list_size (int_range 1 24) gen_flip))
    (fun flips ->
      let bb = Array.map Bytes.copy orig_bb and ib = Array.map Bytes.copy orig_ib in
      List.iter
        (fun (g, which, i) -> flip (match which with `Block -> bb.(g) | `Inode -> ib.(g)) i)
        flips;
      Array.iteri (fun g b -> Memdisk.poke d (Layout.bitmap_block lay g) b) bb;
      Array.iteri (fun g b -> Memdisk.poke d (Layout.ibitmap_block lay g) b) ib;
      let expected =
        List.concat
          (List.init ng (fun g ->
               let blocks =
                 List.filter_map
                   (fun i ->
                     if bit bb.(g) i = bit orig_bb.(g) i then None
                     else
                       let b = Layout.data_start lay g + i in
                       Some
                         (if bit bb.(g) i then
                            (`Warning, Printf.sprintf "block %d marked allocated but unreachable (leak)" b)
                          else (`Error, Printf.sprintf "block %d in use but free in the bitmap" b)))
                   (List.init dpg Fun.id)
               in
               let inodes =
                 List.filter_map
                   (fun i ->
                     let ino = (g * ipg) + i + 1 in
                     if ino = 1 || bit ib.(g) i = bit orig_ib.(g) i then None
                     else
                       Some
                         (if bit ib.(g) i then
                            (`Warning, Printf.sprintf "inode %d marked allocated but free" ino)
                          else (`Error, Printf.sprintf "inode %d live but free in the inode bitmap" ino)))
                   (List.init ipg Fun.id)
               in
               blocks @ inodes))
      in
      let got (r : Fsck.report) =
        List.map (fun f -> (f.Fsck.severity, f.Fsck.message)) r.Fsck.findings
      in
      let r = ok (Fsck.run dev) in
      let repaired = ok (Fsck.run ~repair:true dev) in
      let after = ok (Fsck.run dev) in
      got r = expected
      && List.for_all (fun f -> not f.Fsck.repaired) r.Fsck.findings
      && got repaired = expected
      && List.for_all (fun f -> f.Fsck.repaired) repaired.Fsck.findings
      && after.Fsck.findings = [])

let suites =
  [
    ( "ext3.fsck",
      [
        Alcotest.test_case "clean volume" `Quick test_clean_volume_is_clean;
        Alcotest.test_case "leak detect+repair" `Quick test_detects_and_repairs_leak;
        Alcotest.test_case "missing allocation" `Quick test_detects_missing_allocation;
        Alcotest.test_case "dangling directory entry" `Quick test_detects_dangling_dirent;
        Alcotest.test_case "wrong link count" `Quick test_detects_wrong_linkcount;
        Alcotest.test_case "ixt3 volumes" `Quick test_works_on_ixt3_volumes;
        Alcotest.test_case "triple-indirect file" `Quick test_triple_indirect_file;
        Alcotest.test_case "directory beyond direct blocks" `Quick
          test_directory_beyond_direct_blocks;
        Alcotest.test_case "kind byte outside 1..3 is free" `Quick
          test_unknown_kind_is_free;
        Alcotest.test_case "unreadable inode-table block" `Quick
          test_unreadable_inode_table;
        qtest prop_bitmap_flips;
      ] );
  ]
