(* The disk image, pinned to a plain [bytes array] model.

   The reference device keeps each block as an immutable [bytes] in an
   array (a write replaces the buffer, so a snapshot is an array copy)
   and charges the same [Model] engine. Both devices run under Fault +
   Obs with the same armed rules; data, errors, statistics, clock,
   dirty count, the injector's trace and the metrics registry must
   agree op for op. Twin properties pit one representation of the same
   contents against another — an overlay on an image frozen elsewhere
   against private buffers, a sparse volume against a fully
   materialized one. Plain cases cover the image discipline at two
   geometries — one partial chunk, and three chunks with a partial
   last one — plus the O(touched) footprint. *)

open Iron_disk
open Iron_fault

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* Three 512-block chunks, the last one partial: blocks [1024, 1100)
   exist, [1100, 1536) are in the last chunk's span but out of range. *)
let nb = 1100
let bs = 64

let params ?(num_blocks = nb) seed =
  { Memdisk.default_params with Memdisk.block_size = bs; num_blocks; seed }

let fill seed = Bytes.make bs (Char.chr (seed land 0xff))
let digest b = Digest.to_hex (Digest.bytes b)
let err_str = function Dev.Eio -> "EIO" | Dev.Enxio -> "ENXIO"
let res_str = function Ok b -> "ok:" ^ digest b | Error e -> "err:" ^ err_str e
let unit_str = function Ok () -> "ok" | Error e -> "err:" ^ err_str e

let raw f =
  match f () with s -> s | exception Invalid_argument _ -> "invalid"

(* --- the reference device -------------------------------------------- *)

(* [frozen.(b)]: the current image holds a private buffer for [b];
   [dirty.(b)]: [b] was written since the last snapshot/restore. They
   predict [Memdisk.dirty_count], zero-write elision included: zeroes
   over a clean, never-frozen block dirty nothing. *)
type reference = {
  model : Model.t;
  mutable blocks : bytes array;
  mutable frozen : bool array;
  mutable dirty : bool array;
}

let reference seed =
  {
    model = Model.create (params seed);
    blocks = Array.make nb (Bytes.make bs '\000');
    frozen = Array.make nb false;
    dirty = Array.make nb false;
  }

let in_range b = b >= 0 && b < nb

let ref_dirty_count r =
  Array.fold_left (fun n d -> if d then n + 1 else n) 0 r.dirty

let ref_store r b data =
  r.blocks.(b) <- data;
  r.dirty.(b) <- true

let ref_dev r =
  let read_into b buf =
    if not (in_range b) then Error Dev.Enxio
    else if Bytes.length buf <> bs then Error Dev.Eio
    else begin
      Model.charge_read r.model b;
      Bytes.blit r.blocks.(b) 0 buf 0 bs;
      Ok ()
    end
  in
  let write b data =
    if not (in_range b) then Error Dev.Enxio
    else if Bytes.length data <> bs then Error Dev.Eio
    else begin
      Model.charge_write r.model b;
      let elided =
        (not r.dirty.(b))
        && (not r.frozen.(b))
        && Bytes.for_all (( = ) '\000') data
      in
      if not elided then ref_store r b (Bytes.copy data);
      Ok ()
    end
  in
  {
    Dev.block_size = bs;
    num_blocks = nb;
    read =
      (fun b ->
        let buf = Bytes.create bs in
        Result.map (fun () -> buf) (read_into b buf));
    read_into;
    write;
    sync =
      (fun () ->
        Model.charge_sync r.model;
        Ok ());
    now = (fun () -> Model.now r.model);
  }

let ref_peek r b = if in_range b then r.blocks.(b) else invalid_arg "peek"

let ref_poke r b data =
  let buf = Bytes.copy (ref_peek r b) in
  Bytes.blit data 0 buf 0 (min (Bytes.length data) bs);
  ref_store r b buf

let ref_snapshot r =
  r.frozen <- Array.map2 ( || ) r.frozen r.dirty;
  r.dirty <- Array.make nb false;
  (Array.copy r.blocks, r.frozen)

let ref_restore r (blocks, frozen) =
  r.blocks <- Array.copy blocks;
  r.frozen <- frozen;
  r.dirty <- Array.make nb false;
  Model.reset r.model

(* Identical rules on both stacks, one of them straddling the chunk
   boundary at 512. *)
let stack dev =
  let obs = Iron_obs.Obs.create () in
  let inj = Fault.create ~obs dev in
  List.iter
    (fun r -> ignore (Fault.arm inj r))
    [
      Fault.rule (Fault.Block 3) Fault.Fail_read;
      Fault.rule ~persistence:(Fault.Transient 2) (Fault.Block 5)
        (Fault.Corrupt (Fault.Noise 42));
      Fault.rule (Fault.Range (510, 513)) (Fault.Corrupt Fault.Byte_shift);
      Fault.rule (Fault.Block 1025) Fault.Fail_write;
    ];
  (obs, inj, Dev.observe obs (Fault.dev inj))

let trace inj =
  List.map (Format.asprintf "%a" Fault.pp_event) (Fault.trace inj)

let metrics obs = Iron_obs.Obs.(jsonl_of_snapshot (snapshot obs))

(* --- the operation language ------------------------------------------ *)

type op =
  | Read of int
  | Read_into of int
  | Write of int * int (* block, fill byte; 0 = the zero-write path *)
  | Bad_write of int (* wrong-size buffer *)
  | Sync
  | Peek of int
  | Poke of int * int * int (* block, fill byte, length *)
  | Snapshot
  | Restore of int (* index into the snapshots taken so far *)

let op_print = function
  | Read b -> Printf.sprintf "Read %d" b
  | Read_into b -> Printf.sprintf "Read_into %d" b
  | Write (b, s) -> Printf.sprintf "Write (%d, %d)" b s
  | Bad_write b -> Printf.sprintf "Bad_write %d" b
  | Sync -> "Sync"
  | Peek b -> Printf.sprintf "Peek %d" b
  | Poke (b, s, n) -> Printf.sprintf "Poke (%d, %d, %d)" b s n
  | Snapshot -> "Snapshot"
  | Restore i -> Printf.sprintf "Restore %d" i

(* Blocks cluster at the ends of the volume and around chunk
   boundaries, so ops collide, cross chunks and probe the range
   checks. *)
let blk =
  let open QCheck.Gen in
  frequency
    [
      (3, int_range (-2) 6);
      (2, int_range 508 515);
      (2, int_range 1020 1027);
      (2, int_range (nb - 3) (nb + 3));
      (1, return 1535);
      (1, int_bound (nb - 1));
    ]

let op_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, map (fun b -> Read b) blk);
      (3, map (fun b -> Read_into b) blk);
      (5, map2 (fun b s -> Write (b, s)) blk (int_bound 255));
      (3, map (fun b -> Write (b, 0)) blk);
      (1, map (fun b -> Bad_write b) blk);
      (1, return Sync);
      (2, map (fun b -> Peek b) blk);
      ( 2,
        map3
          (fun b s n -> Poke (b, s, n))
          blk (int_bound 255) (int_bound (bs + 8)) );
      (2, return Snapshot);
      (2, map (fun i -> Restore i) nat);
    ]

let ops_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map op_print l))
    QCheck.Gen.(list_size (int_bound 80) op_gen)

let dev_step dev = function
  | Read b -> res_str (dev.Dev.read b)
  | Read_into b ->
      let buf = Bytes.create bs in
      res_str (Result.map (fun () -> buf) (dev.Dev.read_into b buf))
  | Write (b, s) -> unit_str (dev.Dev.write b (fill s))
  | Bad_write b -> unit_str (dev.Dev.write b (Bytes.create 7))
  | Sync -> unit_str (dev.Dev.sync ())
  | Peek _ | Poke _ | Snapshot | Restore _ -> assert false

let prop_memdisk_equiv_model =
  QCheck.Test.make ~name:"Memdisk ≡ bytes-array model through Fault+Obs"
    ~count:200
    QCheck.(pair (int_bound 1000) ops_arb)
    (fun (seed, ops) ->
      let d = Memdisk.create ~params:(params seed) () in
      let r = reference seed in
      let obs_a, inj_a, dev_a = stack (Memdisk.dev d) in
      let obs_b, inj_b, dev_b = stack (ref_dev r) in
      (* Snapshot 0 is the blank image, so Restore always has a target. *)
      let snaps = ref [| (Memdisk.snapshot d, ref_snapshot r) |] in
      let step = function
        | Peek b ->
            ( raw (fun () -> digest (Memdisk.peek d b)),
              raw (fun () -> digest (ref_peek r b)) )
        | Poke (b, s, n) ->
            let data = Bytes.make n (Char.chr s) in
            ( raw (fun () ->
                  Memdisk.poke d b data;
                  "ok"),
              raw (fun () ->
                  ref_poke r b data;
                  "ok") )
        | Snapshot ->
            let both = (Memdisk.snapshot d, ref_snapshot r) in
            snaps := Array.append !snaps [| both |];
            ("", "")
        | Restore i ->
            let img, ref_img = !snaps.(i mod Array.length !snaps) in
            Memdisk.restore d img;
            ref_restore r ref_img;
            ("", "")
        | op -> (dev_step dev_a op, dev_step dev_b op)
      in
      List.iter
        (fun op ->
          let fail fmt =
            QCheck.Test.fail_reportf ("after %s: " ^^ fmt) (op_print op)
          in
          let a, b = step op in
          if a <> b then fail "memdisk %s, model %s" a b;
          if Memdisk.stats d <> Model.stats r.model then fail "stats differ";
          if dev_a.Dev.now () <> dev_b.Dev.now () then fail "clocks differ";
          if Memdisk.dirty_count d <> ref_dirty_count r then
            fail "dirty count %d, model %d" (Memdisk.dirty_count d)
              (ref_dirty_count r))
        ops;
      List.for_all
        (fun b -> Bytes.equal (Memdisk.peek d b) r.blocks.(b))
        (List.init nb Fun.id)
      && trace inj_a = trace inj_b
      && metrics obs_a = metrics obs_b)

(* --- one device in two representations -------------------------------- *)

(* The same contents held two ways must be indistinguishable through
   the device interface. Each side keeps its own latest snapshot;
   [Restore] (its index ignored) rewinds to that, or before any
   [Snapshot] to the side's starting state. *)
type side = { d : Memdisk.t; sdev : Dev.t; mutable back : unit -> unit }

let side ?(wrap = Fun.id) d back = { d; sdev = wrap (Memdisk.dev d); back }

let side_step s = function
  | Peek b -> raw (fun () -> digest (Memdisk.peek s.d b))
  | Poke (b, v, n) ->
      raw (fun () ->
          Memdisk.poke s.d b (Bytes.make n (Char.chr v));
          "ok")
  | Snapshot ->
      let img = Memdisk.snapshot s.d in
      s.back <- (fun () -> Memdisk.restore s.d img);
      ""
  | Restore _ ->
      s.back ();
      ""
  | op -> dev_step s.sdev op

(* Data, errors, statistics and clock agree after every op; contents
   agree block for block at the end. *)
let twins ~names:(name_a, name_b) a b ops =
  List.iter
    (fun op ->
      let fail fmt =
        QCheck.Test.fail_reportf ("after %s: " ^^ fmt) (op_print op)
      in
      let ra = side_step a op and rb = side_step b op in
      if ra <> rb then fail "%s %s, %s %s" name_a ra name_b rb;
      if Memdisk.stats a.d <> Memdisk.stats b.d then fail "stats differ";
      if a.sdev.Dev.now () <> b.sdev.Dev.now () then fail "clocks differ")
    ops;
  List.for_all
    (fun b' -> Bytes.equal (Memdisk.peek a.d b') (Memdisk.peek b.d b'))
    (List.init nb Fun.id)

let base_arb =
  QCheck.make
    QCheck.Gen.(
      list_size (int_bound 40)
        (pair (map (fun b -> ((b mod nb) + nb) mod nb) blk) (int_bound 255)))

(* A device running as an overlay on an image frozen elsewhere, against
   one holding the same bytes in its own overlay. The image's other
   holder must not see the overlay's writes. *)
let prop_cow_equiv_memdisk =
  QCheck.Test.make ~name:"Cow ≡ Memdisk under random ops" ~count:150
    QCheck.(triple (int_bound 1000) base_arb ops_arb)
    (fun (seed, base, ops) ->
      let seeded () =
        let d = Memdisk.create ~params:(params seed) () in
        List.iter (fun (b, v) -> Memdisk.poke d b (fill v)) base;
        d
      in
      let origin = seeded () in
      let img = Memdisk.snapshot origin in
      let expected = List.init nb (Memdisk.peek origin) in
      let cow = Memdisk.create ~params:(params seed) () in
      Memdisk.restore cow img;
      let flat = seeded () in
      check Alcotest.int "flat holds the base in its overlay"
        (List.length (List.sort_uniq compare (List.map fst base)))
        (Memdisk.dirty_count flat);
      let a = side cow (fun () -> Memdisk.restore cow img) in
      let b =
        side flat (fun () ->
            Memdisk.restore flat
              (Memdisk.blank_image ~block_size:bs ~num_blocks:nb);
            List.iter (fun (b, v) -> Memdisk.poke flat b (fill v)) base)
      in
      twins ~names:("cow", "flat") a b ops
      && List.for_all2 Bytes.equal expected (List.init nb (Memdisk.peek origin))
      && List.for_all2 Bytes.equal expected
           (List.init nb (Memdisk.image_block img)))

(* A fresh sparse device, nothing materialized and zero writes elided,
   against a dense one whose every block holds a private buffer. *)
let sparse_and_dense ?wrap ~timed seed =
  let mk () =
    let d = Memdisk.create ~params:(params seed) () in
    Memdisk.set_time_model d timed;
    d
  in
  let sp = mk () and dense = mk () in
  for b = 0 to nb - 1 do
    Memdisk.poke dense b (Bytes.make bs '\000')
  done;
  let full = Memdisk.snapshot dense in
  check Alcotest.int "dense: every block materialized" nb
    (Memdisk.image_blocks_touched full);
  let blank = Memdisk.snapshot sp in
  check Alcotest.int "sparse: nothing materialized" 0
    (Memdisk.image_chunks_touched blank);
  ( side ?wrap sp (fun () -> Memdisk.restore sp blank),
    side ?wrap dense (fun () -> Memdisk.restore dense full) )

let prop_sparse_equiv_memdisk =
  QCheck.Test.make ~name:"Sparse ≡ Memdisk under random ops" ~count:150
    QCheck.(pair (int_bound 1000) ops_arb)
    (fun (seed, ops) ->
      let a, b = sparse_and_dense ~timed:true seed in
      twins ~names:("sparse", "dense") a b ops)

let prop_sparse_equiv_through_fault_and_obs =
  QCheck.Test.make
    ~name:"Sparse ≡ Memdisk through Fault+Obs under armed rules" ~count:75
    QCheck.(pair (int_bound 1000) ops_arb)
    (fun (seed, ops) ->
      let stacks = ref [] in
      let wrap dev =
        let obs, inj, sdev = stack dev in
        stacks := (obs, inj) :: !stacks;
        sdev
      in
      let a, b = sparse_and_dense ~wrap ~timed:false seed in
      twins ~names:("sparse", "dense") a b ops
      &&
      match !stacks with
      | [ (obs_b, inj_b); (obs_a, inj_a) ] ->
          trace inj_a = trace inj_b && metrics obs_a = metrics obs_b
      | _ -> false)

(* --- the image discipline, at one chunk and at three ------------------ *)

let disk num_blocks seed =
  let d = Memdisk.create ~params:(params ~num_blocks seed) () in
  (d, Memdisk.dev d)

let raises_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let test_snapshot_is_frozen num_blocks () =
  let d, dev = disk num_blocks 7 in
  let blocks = [ 3; num_blocks - 1 ] in
  List.iter (fun b -> Dev.write_exn dev b (fill 0xAA)) blocks;
  let img = Memdisk.snapshot d in
  (* Writing after the freeze must not leak into the image. *)
  List.iter (fun b -> Dev.write_exn dev b (fill 0xBB)) blocks;
  Memdisk.restore d img;
  List.iter
    (fun b ->
      check Alcotest.bytes "restore sees frozen bytes" (fill 0xAA)
        (Dev.read_exn dev b))
    blocks;
  check Alcotest.int "restore resets stats" 0 (Memdisk.stats d).Memdisk.writes

let test_restore_is_o_dirty num_blocks () =
  let d, dev = disk num_blocks 8 in
  let img = Memdisk.snapshot d in
  List.iter (fun b -> Dev.write_exn dev b (fill b)) [ 1; 2; num_blocks - 1 ];
  check Alcotest.int "three dirty blocks" 3 (Memdisk.dirty_count d);
  Memdisk.restore d img;
  check Alcotest.int "restore drops the overlay" 0 (Memdisk.dirty_count d);
  check Alcotest.bytes "block reverted" (Bytes.make bs '\000')
    (Dev.read_exn dev 1)

let test_images_share_clean_blocks num_blocks () =
  let d, dev = disk num_blocks 9 in
  let last = num_blocks - 1 in
  Dev.write_exn dev 5 (fill 5);
  let a = Memdisk.snapshot d in
  Dev.write_exn dev last (fill 6);
  let b = Memdisk.snapshot d in
  (* Block 5 was clean between the freezes: physically shared. *)
  check Alcotest.bool "clean block shared between images" true
    (Memdisk.image_block a 5 == Memdisk.image_block b 5);
  check Alcotest.bool "dirty block not shared" false
    (Memdisk.image_block a last == Memdisk.image_block b last)

let test_geometry_mismatch_raises num_blocks () =
  let d, _ = disk num_blocks 10 in
  (* One block more usually keeps the chunk count: the check is per
     block, not per chunk. *)
  raises_invalid "num_blocks" (fun () ->
      Memdisk.restore d
        (Memdisk.blank_image ~block_size:bs ~num_blocks:(num_blocks + 1)));
  raises_invalid "block_size" (fun () ->
      Memdisk.restore d (Memdisk.blank_image ~block_size:(2 * bs) ~num_blocks))

let test_snapshot_seeds_another_device num_blocks () =
  (* The executor's prepare path: capture on one device, overlay the
     image on a fresh one. *)
  let a, _ = disk num_blocks 11 in
  Memdisk.poke a 4 (fill 0x44);
  let img = Memdisk.snapshot a in
  let b, dev = disk num_blocks 11 in
  Memdisk.restore b img;
  check Alcotest.bytes "image carried across devices" (fill 0x44)
    (Dev.read_exn dev 4)

let discipline num_blocks =
  [
    Alcotest.test_case "snapshot freezes the image" `Quick
      (test_snapshot_is_frozen num_blocks);
    Alcotest.test_case "restore drops only the overlay" `Quick
      (test_restore_is_o_dirty num_blocks);
    Alcotest.test_case "images share clean blocks" `Quick
      (test_images_share_clean_blocks num_blocks);
    Alcotest.test_case "geometry mismatch raises" `Quick
      (test_geometry_mismatch_raises num_blocks);
    Alcotest.test_case "memdisk snapshot overlays a cow" `Quick
      (test_snapshot_seeds_another_device num_blocks);
  ]

(* --- chunk index and footprint --------------------------------------- *)

(* Raw access checks the block number itself, not the chunk index:
   with chunk 0 materialized and the partial last chunk still [None],
   1100..1535 would otherwise read as zeroes and -1 would alias slot
   511 of chunk 0. *)
let test_raw_access_range () =
  let d, _ = disk nb 12 in
  List.iter (fun b -> Memdisk.poke d b (fill b)) [ 0; 511 ];
  let img = Memdisk.snapshot d in
  List.iter
    (fun b ->
      raises_invalid (Printf.sprintf "peek %d" b) (fun () -> Memdisk.peek d b);
      raises_invalid (Printf.sprintf "poke %d" b) (fun () ->
          Memdisk.poke d b (fill 0xEE)))
    [ -1; -512; nb; 1535; 1536 ];
  check Alcotest.int "nothing dirtied" 0 (Memdisk.dirty_count d);
  check Alcotest.bool "snapshot unchanged" true (Memdisk.snapshot d == img);
  check Alcotest.bytes "block 511 intact" (fill 511) (Memdisk.peek d 511)

let test_zero_write_materializes_nothing () =
  let d, dev = disk nb 8 in
  (* A whole-volume zeroing pass (mkfs's first act): charged, counted,
     but free. *)
  for b = 0 to nb - 1 do
    Dev.write_exn dev b (Bytes.make bs '\000')
  done;
  check Alcotest.int "all writes counted" nb (Memdisk.stats d).Memdisk.writes;
  check Alcotest.int "nothing dirty" 0 (Memdisk.dirty_count d);
  check Alcotest.int "no chunks materialized" 0
    (Memdisk.image_chunks_touched (Memdisk.snapshot d));
  (* A real write then materializes exactly one chunk, one block. *)
  Dev.write_exn dev 600 (fill 0x20);
  let img = Memdisk.snapshot d in
  check Alcotest.int "one chunk" 1 (Memdisk.image_chunks_touched img);
  check Alcotest.int "one block" 1 (Memdisk.image_blocks_touched img)

(* A 1 GiB logical volume (262144 blocks of 4 KiB) holds a full ext3
   mkfs + mount + workload in memory proportional to the blocks
   actually touched — thousands, not a quarter million. *)
let test_gigabyte_volume_is_o_touched () =
  let params =
    { Memdisk.default_params with Memdisk.num_blocks = 262_144; seed = 5 }
  in
  let d = Memdisk.create ~params () in
  Memdisk.set_time_model d false;
  let dev = Memdisk.dev d in
  (match Iron_vfs.Fs.mkfs Iron_ext3.Ext3.std dev with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "mkfs");
  (match Iron_vfs.Fs.mount Iron_ext3.Ext3.std dev with
  | Ok (Iron_vfs.Fs.Boxed ((module F), t)) ->
      (match F.creat t "/big" with
      | Ok fd ->
          ignore (F.write t fd ~off:0 (Bytes.make 65536 'x'));
          ignore (F.fsync t fd);
          ignore (F.close t fd)
      | Error _ -> Alcotest.fail "creat");
      ignore (F.unmount t)
  | Error _ -> Alcotest.fail "mount");
  let touched = Memdisk.image_blocks_touched (Memdisk.snapshot d) in
  check Alcotest.bool "some blocks touched" true (touched > 0);
  check Alcotest.bool
    (Printf.sprintf "touched (%d) well under 1/8 of the volume" touched)
    true
    (touched < 262_144 / 8)

(* --- read_into ≡ read through the wrapper stack ---------------------- *)

(* Twin stacks over identical content and identical fault rules; one is
   driven with [read], the other with [read_into]. Everything
   observable — data, errors, the injector's trace, its counters, the
   metrics registry — must be indistinguishable. *)

let small = 48

let random_disk seed =
  let d, dev = disk small seed in
  Memdisk.set_time_model d false;
  let prng = Iron_util.Prng.create seed in
  for b = 0 to small - 1 do
    let buf = Bytes.create bs in
    Iron_util.Prng.fill_bytes prng buf;
    Memdisk.poke d b buf
  done;
  dev

let build_stack seed =
  let obs = Iron_obs.Obs.create () in
  let inj = Fault.create ~obs (random_disk (seed lxor 0xC0FFEE)) in
  ignore (Fault.arm inj (Fault.rule (Fault.Block 3) Fault.Fail_read));
  ignore
    (Fault.arm inj
       (Fault.rule
          ~persistence:(Fault.Transient 2)
          (Fault.Block 5)
          (Fault.Corrupt (Fault.Noise 42))));
  ignore
    (Fault.arm inj
       (Fault.rule (Fault.Range (9, 11)) (Fault.Corrupt Fault.Byte_shift)));
  (obs, inj, Dev.observe obs (Fault.dev inj))

let test_read_into_equiv_through_fault_and_obs () =
  let obs_a, inj_a, dev_a = build_stack 21 in
  let obs_b, inj_b, dev_b = build_stack 21 in
  (* Every block twice, so the Transient rule runs out on both sides at
     the same access. *)
  List.iter
    (fun b ->
      check Alcotest.string (Printf.sprintf "block %d" b)
        (dev_step dev_a (Read b))
        (dev_step dev_b (Read_into b)))
    (List.init (2 * small) (fun i -> i mod small));
  check
    Alcotest.(list string)
    "identical fault traces" (trace inj_a) (trace inj_b);
  check Alcotest.string "identical metrics" (metrics obs_a) (metrics obs_b)

let prop_bcache_read_into_equiv =
  QCheck.Test.make ~name:"Bcache.read_into ≡ Bcache.read" ~count:100
    QCheck.(pair (int_bound 1000) (small_list (int_range (-1) (small + 2))))
    (fun (seed, blocks) ->
      let mk () =
        Bcache.create ~capacity:8 (random_disk (seed lxor 0xBCACE))
      in
      let ca = mk () and cb = mk () in
      List.for_all
        (fun b ->
          let buf = Bytes.create bs in
          res_str (Bcache.read ca b)
          = res_str (Result.map (fun () -> buf) (Bcache.read_into cb b buf))
          && Bcache.hits ca = Bcache.hits cb
          && Bcache.misses ca = Bcache.misses cb)
        blocks)

let suites =
  [
    ("disk.model", [ qtest prop_memdisk_equiv_model ]);
    ("disk.cow", discipline small @ [ qtest prop_cow_equiv_memdisk ]);
    ( "disk.sparse",
      discipline nb
      @ [
          Alcotest.test_case "raw access checks block range" `Quick
            test_raw_access_range;
          Alcotest.test_case "zero writes materialize nothing" `Quick
            test_zero_write_materializes_nothing;
          Alcotest.test_case "1 GiB volume is O(touched)" `Quick
            test_gigabyte_volume_is_o_touched;
          qtest prop_sparse_equiv_memdisk;
          qtest prop_sparse_equiv_through_fault_and_obs;
        ] );
    ( "disk.read_into",
      [
        Alcotest.test_case "read_into ≡ read through Fault+Obs" `Quick
          test_read_into_equiv_through_fault_and_obs;
        qtest prop_bcache_read_into_equiv;
      ] );
  ]
