(* Tests for the simulated disk and block cache. *)

open Iron_disk

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let small_params =
  { Memdisk.default_params with Memdisk.num_blocks = 64; seed = 1 }

let make () =
  let d = Memdisk.create ~params:small_params () in
  (d, Memdisk.dev d)

let block dev c = Bytes.make dev.Dev.block_size c

let test_read_write_roundtrip () =
  let _, dev = make () in
  let data = block dev 'x' in
  Dev.write_exn dev 5 data;
  check Alcotest.bytes "roundtrip" data (Dev.read_exn dev 5)

let test_fresh_blocks_zero () =
  let _, dev = make () in
  check Alcotest.bytes "zeroed" (block dev '\000') (Dev.read_exn dev 0)

let test_out_of_range () =
  let _, dev = make () in
  (match dev.Dev.read 64 with
  | Error Dev.Enxio -> ()
  | Ok _ | Error Dev.Eio -> Alcotest.fail "expected ENXIO");
  match dev.Dev.write (-1) (block dev 'a') with
  | Error Dev.Enxio -> ()
  | Ok _ | Error Dev.Eio -> Alcotest.fail "expected ENXIO"

let test_wrong_size_write () =
  let _, dev = make () in
  match dev.Dev.write 0 (Bytes.create 7) with
  | Error Dev.Eio -> ()
  | Ok _ | Error Dev.Enxio -> Alcotest.fail "expected EIO"

let test_time_advances () =
  let _, dev = make () in
  let t0 = dev.Dev.now () in
  Dev.write_exn dev 10 (block dev 'a');
  Dev.write_exn dev 50 (block dev 'b');
  check Alcotest.bool "time advanced" true (dev.Dev.now () > t0)

let test_sequential_cheaper_than_random () =
  let mk seed =
    Memdisk.create ~params:{ small_params with Memdisk.seed } ()
  in
  let seq = mk 2 and rnd = mk 2 in
  let sdev = Memdisk.dev seq and rdev = Memdisk.dev rnd in
  for i = 0 to 30 do
    Dev.write_exn sdev i (block sdev 'a')
  done;
  (* Same number of writes, but scattered. *)
  List.iteri
    (fun _ b -> Dev.write_exn rdev b (block rdev 'a'))
    [ 0; 40; 3; 55; 9; 33; 1; 60; 17; 44; 5; 50; 11; 38; 2; 58; 21;
      47; 7; 53; 13; 41; 4; 63; 19; 36; 6; 56; 15; 43; 8 ];
  check Alcotest.bool "sequential faster" true
    ((Memdisk.stats seq).Memdisk.elapsed_ms < (Memdisk.stats rnd).Memdisk.elapsed_ms)

let test_sync_counts_and_charges () =
  let d, dev = make () in
  Dev.write_exn dev 0 (block dev 'a');
  let before = (Memdisk.stats d).Memdisk.elapsed_ms in
  ignore (dev.Dev.sync ());
  let after = (Memdisk.stats d).Memdisk.elapsed_ms in
  check Alcotest.bool "sync with dirty data costs time" true (after > before);
  (* A second sync with nothing dirty is free. *)
  ignore (dev.Dev.sync ());
  check Alcotest.(float 0.0001) "idempotent sync" after
    (Memdisk.stats d).Memdisk.elapsed_ms

let test_snapshot_restore () =
  let d, dev = make () in
  Dev.write_exn dev 3 (block dev 'a');
  let snap = Memdisk.snapshot d in
  Dev.write_exn dev 3 (block dev 'b');
  Dev.write_exn dev 4 (block dev 'c');
  Memdisk.restore d snap;
  check Alcotest.int "stats reset" 0 (Memdisk.stats d).Memdisk.reads;
  check Alcotest.bytes "restored block 3" (block dev 'a') (Dev.read_exn dev 3);
  check Alcotest.bytes "restored block 4" (block dev '\000') (Dev.read_exn dev 4)

let test_time_model_toggle () =
  let d, dev = make () in
  Memdisk.set_time_model d false;
  Dev.write_exn dev 10 (block dev 'a');
  Dev.write_exn dev 55 (block dev 'b');
  check Alcotest.(float 0.0) "no time charged" 0.0 (dev.Dev.now ())

let prop_disk_holds_data =
  QCheck.Test.make ~name:"disk stores independent blocks" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (int_bound 63))
    (fun blocks ->
      let _, dev = make () in
      List.iteri
        (fun i b -> Dev.write_exn dev b (block dev (Char.chr (65 + (i mod 26)))))
        blocks;
      (* The final write to each block wins. *)
      let final = Hashtbl.create 16 in
      List.iteri (fun i b -> Hashtbl.replace final b (Char.chr (65 + (i mod 26)))) blocks;
      Hashtbl.fold
        (fun b c acc -> acc && Bytes.equal (Dev.read_exn dev b) (block dev c))
        final true)

(* --- Bcache ---------------------------------------------------------- *)

let test_bcache_hit () =
  let d, dev = make () in
  let c = Bcache.create ~capacity:8 dev in
  Dev.write_exn dev 1 (block dev 'z');
  Memdisk.reset_stats d;
  (match Bcache.read c 1 with Ok _ -> () | Error _ -> Alcotest.fail "read");
  (match Bcache.read c 1 with Ok _ -> () | Error _ -> Alcotest.fail "read");
  check Alcotest.int "only one device read" 1 (Memdisk.stats d).Memdisk.reads;
  check Alcotest.int "one hit" 1 (Bcache.hits c)

let test_bcache_write_through () =
  let _, dev = make () in
  let c = Bcache.create dev in
  (match Bcache.write c 2 (block dev 'q') with Ok () -> () | Error _ -> assert false);
  check Alcotest.bytes "reached device" (block dev 'q') (Dev.read_exn dev 2)

let test_bcache_eviction () =
  let d, dev = make () in
  let c = Bcache.create ~capacity:4 dev in
  for b = 0 to 7 do
    ignore (Bcache.read c b)
  done;
  Memdisk.reset_stats d;
  ignore (Bcache.read c 0);
  check Alcotest.int "evicted block re-read from device" 1
    (Memdisk.stats d).Memdisk.reads

let test_bcache_failed_write_keeps_new_data () =
  (* Page-cache semantics: a failed device write leaves memory new and
     disk stale (the behaviour behind ext3's silent write-error loss). *)
  let d, dev = make () in
  Dev.write_exn dev 3 (block dev 'o');
  let inj = Iron_fault.Fault.create dev in
  let fdev = Iron_fault.Fault.dev inj in
  let c = Bcache.create fdev in
  ignore (Iron_fault.Fault.arm inj
            (Iron_fault.Fault.rule (Iron_fault.Fault.Block 3) Iron_fault.Fault.Fail_write));
  (match Bcache.write c 3 (block dev 'n') with
  | Error Dev.Eio -> ()
  | Ok () | Error Dev.Enxio -> Alcotest.fail "expected injected EIO");
  (match Bcache.read c 3 with
  | Ok data -> check Alcotest.bytes "cache has new data" (block dev 'n') data
  | Error _ -> Alcotest.fail "cache read");
  check Alcotest.bytes "disk has old data" (block dev 'o') (Memdisk.peek d 3)

let test_bcache_invalidate () =
  let d, dev = make () in
  let c = Bcache.create dev in
  ignore (Bcache.read c 5);
  Bcache.invalidate c 5;
  Memdisk.reset_stats d;
  ignore (Bcache.read c 5);
  check Alcotest.int "device read after invalidate" 1 (Memdisk.stats d).Memdisk.reads

let test_bcache_fifo_after_invalidate () =
  (* An invalidated block read again is the newest resident, not the
     oldest: eviction is exact FIFO over the resident blocks. *)
  let d, dev = make () in
  let c = Bcache.create ~capacity:4 dev in
  let rd b = ignore (Bcache.read c b) in
  List.iter rd [ 0; 1; 2 ];
  Bcache.invalidate c 0;
  List.iter rd [ 0; 3; 4 ];
  Memdisk.reset_stats d;
  rd 0;
  check Alcotest.int "block 0 still resident" 0 (Memdisk.stats d).Memdisk.reads;
  rd 1;
  check Alcotest.int "block 1 was the victim" 1 (Memdisk.stats d).Memdisk.reads

let test_bcache_peek_borrows () =
  let d, dev = make () in
  let c = Bcache.create ~capacity:4 dev in
  Dev.write_exn dev 2 (block dev 'p');
  Memdisk.reset_stats d;
  let a = Result.get_ok (Bcache.peek c 2) in
  let b = Result.get_ok (Bcache.peek c 2) in
  check Alcotest.bool "same buffer" true (a == b);
  check Alcotest.bytes "contents" (block dev 'p') a;
  check Alcotest.int "one miss, one hit" 1 (Bcache.misses c);
  check Alcotest.int "hit counted" 1 (Bcache.hits c);
  check Alcotest.int "one device read" 1 (Memdisk.stats d).Memdisk.reads

(* Model-based check of the cache: a write-through FIFO cache over a
   [char array] disk, with the verify-once mark. *)
type bc_op =
  | Op_read of int
  | Op_peek of int
  | Op_read_into of int
  | Op_write of int * char
  | Op_invalidate of int
  | Op_invalidate_all
  | Op_set_checked of int

let bc_blocks = 8
let bc_capacity = 4

let show_bc_op = function
  | Op_read b -> Printf.sprintf "read %d" b
  | Op_peek b -> Printf.sprintf "peek %d" b
  | Op_read_into b -> Printf.sprintf "read_into %d" b
  | Op_write (b, ch) -> Printf.sprintf "write %d %C" b ch
  | Op_invalidate b -> Printf.sprintf "invalidate %d" b
  | Op_invalidate_all -> "invalidate_all"
  | Op_set_checked b -> Printf.sprintf "set_checked %d" b

let gen_bc_op =
  let open QCheck.Gen in
  let blk = int_bound (bc_blocks - 1) in
  frequency
    [
      (4, map (fun b -> Op_read b) blk);
      (4, map (fun b -> Op_peek b) blk);
      (2, map (fun b -> Op_read_into b) blk);
      (3, map2 (fun b ch -> Op_write (b, ch)) blk (char_range 'a' 'e'));
      (1, map (fun b -> Op_invalidate b) blk);
      (1, return Op_invalidate_all);
      (3, map (fun b -> Op_set_checked b) blk);
    ]

let prop_bcache_model =
  QCheck.Test.make ~name:"Bcache matches an exact-FIFO model" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_bc_op ops))
        Gen.(list_size (int_range 1 60) gen_bc_op))
    (fun ops ->
      let _, dev = make () in
      let c = Bcache.create ~capacity:bc_capacity dev in
      let disk = Array.make bc_blocks '\000' in
      let resident = ref [] (* oldest first *) in
      let marked = ref [] (* block, contents when marked *) in
      let hits = ref 0 and misses = ref 0 in
      let unmark b = marked := List.remove_assoc b !marked in
      let admit b =
        if not (List.mem b !resident) then begin
          if List.length !resident >= bc_capacity then begin
            unmark (List.hd !resident);
            resident := List.tl !resident
          end;
          resident := !resident @ [ b ]
        end
      in
      let access b =
        if List.mem b !resident then incr hits
        else begin
          incr misses;
          admit b
        end
      in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let expect b got =
        if not (Bytes.equal got (block dev disk.(b))) then
          fail "block %d: stale contents" b
      in
      (* A read of a marked block must see the bytes it was marked with. *)
      let read_checked b got =
        if Bcache.checked c b then
          match List.assoc_opt b !marked with
          | Some ch when Bytes.equal got (block dev ch) -> ()
          | _ -> fail "block %d: marked but changed" b
      in
      let step op =
        (match op with
        | Op_read b ->
            let got = Result.get_ok (Bcache.read c b) in
            access b;
            expect b got;
            read_checked b got;
            (* A copy: scribbling on it must not reach the cache. *)
            Bytes.fill got 0 (Bytes.length got) '#'
        | Op_peek b ->
            let got = Result.get_ok (Bcache.peek c b) in
            access b;
            expect b got;
            read_checked b got
        | Op_read_into b ->
            let buf = Bytes.make dev.Dev.block_size '#' in
            Result.get_ok (Bcache.read_into c b buf);
            access b;
            expect b buf;
            read_checked b buf
        | Op_write (b, ch) ->
            Result.get_ok (Bcache.write c b (block dev ch));
            disk.(b) <- ch;
            if List.mem b !resident then unmark b else admit b
        | Op_invalidate b ->
            Bcache.invalidate c b;
            unmark b;
            resident := List.filter (( <> ) b) !resident
        | Op_invalidate_all ->
            Bcache.invalidate_all c;
            resident := [];
            marked := []
        | Op_set_checked b ->
            Bcache.set_checked c b true;
            if List.mem b !resident then
              marked := (b, disk.(b)) :: List.remove_assoc b !marked);
        if Bcache.hits c <> !hits || Bcache.misses c <> !misses then
          fail "after %s: hits/misses %d/%d, model %d/%d" (show_bc_op op)
            (Bcache.hits c) (Bcache.misses c) !hits !misses;
        for b = 0 to bc_blocks - 1 do
          let m = List.mem_assoc b !marked in
          if Bcache.checked c b <> m then
            fail "after %s: block %d checked=%b, model %b" (show_bc_op op) b
              (Bcache.checked c b) m;
          if m && not (List.mem b !resident) then
            fail "block %d marked but not resident" b
        done
      in
      List.iter step ops;
      (* Read everything back: the resident sets must agree too. *)
      List.iter step (List.init bc_blocks (fun b -> Op_peek b));
      true)

let suites =
  [
    ( "disk.memdisk",
      [
        Alcotest.test_case "roundtrip" `Quick test_read_write_roundtrip;
        Alcotest.test_case "fresh blocks zero" `Quick test_fresh_blocks_zero;
        Alcotest.test_case "out of range" `Quick test_out_of_range;
        Alcotest.test_case "wrong-size write" `Quick test_wrong_size_write;
        Alcotest.test_case "time advances" `Quick test_time_advances;
        Alcotest.test_case "sequential cheaper" `Quick test_sequential_cheaper_than_random;
        Alcotest.test_case "sync charges rotation" `Quick test_sync_counts_and_charges;
        Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
        Alcotest.test_case "time model toggle" `Quick test_time_model_toggle;
        qtest prop_disk_holds_data;
      ] );
    ( "disk.bcache",
      [
        Alcotest.test_case "cache hit" `Quick test_bcache_hit;
        Alcotest.test_case "write-through" `Quick test_bcache_write_through;
        Alcotest.test_case "eviction" `Quick test_bcache_eviction;
        Alcotest.test_case "failed write keeps new data" `Quick
          test_bcache_failed_write_keeps_new_data;
        Alcotest.test_case "invalidate" `Quick test_bcache_invalidate;
        Alcotest.test_case "FIFO order after invalidate" `Quick
          test_bcache_fifo_after_invalidate;
        Alcotest.test_case "peek borrows" `Quick test_bcache_peek_borrows;
        qtest prop_bcache_model;
      ] );
  ]
