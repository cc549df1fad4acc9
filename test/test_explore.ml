(* The crash-state explorer and its write-log recorder.

   The wlog suite pins the recorder's contract: epochs delimited by
   effective syncs, private data copies, failed writes never logged,
   and — the differential check — with recording off the device is
   invisible: a fault-injector tracer below it sees a byte-identical
   request stream and the final disk image matches a run without the
   recorder in the stack.

   The explore suite is the end-to-end story: ext3 without
   transactional checksums replays reordered commits as garbage
   (violations), ixt3 detects the mismatch and refuses (zero
   violations, Tc detections), and the report is a pure function of
   the seed — the worker count cannot change it. *)

open Iron_disk
module Fault = Iron_fault.Fault
module Fs = Iron_vfs.Fs
module Wlog = Iron_crash.Wlog
module Explore = Iron_crash.Explore

let check = Alcotest.check

let params = { Memdisk.default_params with Memdisk.num_blocks = 512; seed = 21 }

let make () =
  let d = Memdisk.create ~params () in
  Memdisk.set_time_model d false;
  let w = Wlog.create (Memdisk.dev d) in
  (d, w, Wlog.dev w)

let block dev c = Bytes.make dev.Dev.block_size c

(* --- wlog --------------------------------------------------------------- *)

let test_epoch_accounting () =
  let _, w, dev = make () in
  Wlog.set_recording w true;
  Dev.write_exn dev 1 (block dev 'a');
  Dev.write_exn dev 2 (block dev 'b');
  (match dev.Dev.sync () with Ok () -> () | Error _ -> Alcotest.fail "sync");
  (* Back-to-back syncs must not mint empty epochs. *)
  (match dev.Dev.sync () with Ok () -> () | Error _ -> Alcotest.fail "sync");
  (match dev.Dev.sync () with Ok () -> () | Error _ -> Alcotest.fail "sync");
  Dev.write_exn dev 1 (block dev 'c');
  check Alcotest.int "one closed epoch" 1 (Wlog.epochs w);
  check Alcotest.int "three writes" 3 (Wlog.length w);
  let e = Wlog.entries w in
  check Alcotest.int "first write epoch 0" 0 e.(0).Wlog.w_epoch;
  check Alcotest.int "post-sync write epoch 1" 1 e.(2).Wlog.w_epoch;
  check Alcotest.int "seq numbers in issue order" 2 e.(2).Wlog.w_seq;
  Wlog.clear w;
  check Alcotest.int "clear drops the log" 0 (Wlog.length w);
  check Alcotest.int "clear resets epochs" 0 (Wlog.epochs w)

let test_private_copies () =
  let _, w, dev = make () in
  Wlog.set_recording w true;
  let buf = block dev 'x' in
  Dev.write_exn dev 3 buf;
  Bytes.fill buf 0 (Bytes.length buf) 'y';
  let e = Wlog.entries w in
  check Alcotest.bytes "log holds a frozen copy" (block dev 'x')
    e.(0).Wlog.w_data

let test_failed_writes_not_recorded () =
  let d = Memdisk.create ~params () in
  Memdisk.set_time_model d false;
  let inj = Fault.create (Memdisk.dev d) in
  ignore (Fault.arm inj (Fault.rule (Fault.Block 7) Fault.Fail_write));
  let w = Wlog.create (Fault.dev inj) in
  let dev = Wlog.dev w in
  Wlog.set_recording w true;
  (match dev.Dev.write 7 (block dev 'z') with
  | Error Dev.Eio -> ()
  | _ -> Alcotest.fail "expected the injected write failure");
  Dev.write_exn dev 8 (block dev 'k');
  check Alcotest.int "only the successful write is logged" 1 (Wlog.length w);
  check Alcotest.int "and it is block 8" 8 (Wlog.entries w).(0).Wlog.w_block

let test_recording_off_logs_nothing () =
  let _, w, dev = make () in
  Dev.write_exn dev 1 (block dev 'a');
  (match dev.Dev.sync () with Ok () -> () | Error _ -> Alcotest.fail "sync");
  check Alcotest.int "nothing logged" 0 (Wlog.length w);
  check Alcotest.int "no epochs" 0 (Wlog.epochs w)

(* The differential: mount ext3 and run the standard fixture twice on
   identical disks — once with the (non-recording) wlog in the stack,
   once without. A tracing fault injector below both must observe the
   same request stream, and the final images must match byte for
   byte. *)
let test_invisible_when_off () =
  let run ~with_wlog =
    let d = Memdisk.create ~params () in
    Memdisk.set_time_model d false;
    let inj = Fault.create (Memdisk.dev d) in
    let below = Fault.dev inj in
    let dev =
      if with_wlog then Wlog.dev (Wlog.create below) else below
    in
    (match Fs.mkfs Iron_ext3.Ext3.std dev with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "mkfs");
    (match Fs.mount Iron_ext3.Ext3.std dev with
    | Ok (Fs.Boxed ((module F), t) as boxed) ->
        (match Iron_core.Workload.fixture boxed with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "fixture");
        (match F.sync t with Ok () -> () | Error _ -> Alcotest.fail "sync");
        ignore (F.unmount t)
    | Error _ -> Alcotest.fail "mount");
    (Fault.trace inj, List.init params.Memdisk.num_blocks (Memdisk.peek d))
  in
  let trace_ref, image_ref = run ~with_wlog:false in
  let trace_w, image_w = run ~with_wlog:true in
  check Alcotest.int "same number of device requests" (List.length trace_ref)
    (List.length trace_w);
  check Alcotest.bool "request streams identical" true (trace_ref = trace_w);
  check Alcotest.bool "final images identical" true
    (List.for_all2 Bytes.equal image_ref image_w)

(* --- explore ------------------------------------------------------------ *)

let test_ext3_vs_ixt3 () =
  (* The paper's §6.1 story, end to end: a reorder window that keeps
     the commit block but drops journal payload makes vanilla ext3
     replay stale bytes over live metadata; ixt3's transactional
     checksum spots the mismatch and refuses the transaction. *)
  let e3 = Explore.explore ~jobs:2 ~max_states:400 Iron_ext3.Ext3.std in
  let ix = Explore.explore ~jobs:2 ~max_states:400 Iron_ext3.Ext3.ixt3 in
  check Alcotest.bool "hundreds of distinct states (ext3)" true (e3.Explore.states >= 300);
  check Alcotest.bool "hundreds of distinct states (ixt3)" true (ix.Explore.states >= 300);
  check Alcotest.bool "ext3 has crash-consistency violations" true
    (e3.Explore.violations <> []);
  check Alcotest.int "ext3 has no Tc to detect with" 0 e3.Explore.tc_detected;
  check Alcotest.int "ixt3 survives every crash state" 0
    (List.length ix.Explore.violations);
  check Alcotest.bool "ixt3's Tc refused reordered commits" true
    (ix.Explore.tc_detected >= 1)

let test_checkpoint_tail_advance () =
  (* Regression (found by the B3 fuzzer): the journal must not advance
     its tail — write the cleaned superblock — in the same barrier
     epoch as its checkpoint in-place writes. A crash that persists
     the superblock while dropping a checkpoint write would have no
     replay path: the log says clean, the home location is stale.
     Property: every barrier-honouring crash state (an epoch window,
     not the lying-cache "all" window) with E >= 1 recovers
     fsck-clean. *)
  List.iter
    (fun (name, brand) ->
      let params =
        { Memdisk.default_params with Memdisk.num_blocks = 2048; seed = 99 }
      in
      let base = Explore.make_base ~params ~setup:(fun _ -> ()) brand in
      let session =
        Explore.record_session ~params ~base
          ~ops:(fun (Fs.Boxed ((module F), t)) ~closed_epochs:_ ->
            (match F.creat t "/victim" with
            | Ok fd -> ignore (F.close t fd)
            | Error _ -> Alcotest.fail "creat /victim");
            match F.sync t with
            | Ok () -> ()
            | Error _ -> Alcotest.fail "sync")
          brand
      in
      let specs = Explore.enumerate_session ~seed:5 ~max_states:400 session in
      let expects ~epoch:_ = [] in
      List.iter
        (fun spec ->
          let label = Explore.spec_label spec in
          if String.length label > 0 && label.[0] = 'e'
             && Explore.spec_epoch session spec >= 1
          then
            let o =
              Explore.check_spec ~params ~brand ~fsck:true ~expects session spec
            in
            match o.Explore.viol with
            | None -> ()
            | Some (k, d) ->
                Alcotest.failf "%s: %s: %s: %s" name (Explore.spec_label spec)
                  (Explore.kind_to_string k) d)
        specs)
    [ ("ext3", Iron_ext3.Ext3.std); ("ixt3", Iron_ext3.Ext3.ixt3) ]

let test_jobs_deterministic () =
  (* Every journaling brand, including the ext3 commit-mode variants:
     exploring with one worker and with three must produce the same
     report, violation for violation. *)
  List.iter
    (fun (name, brand) ->
      let r1 = Explore.explore ~jobs:1 ~max_states:100 brand in
      let r3 = Explore.explore ~jobs:3 ~max_states:100 brand in
      check Alcotest.bool (name ^ ": report is a pure function of the seed")
        true (r1 = r3);
      check Alcotest.bool (name ^ ": states were explored") true
        (r1.Explore.states > 0))
    [
      ("ext3", Iron_ext3.Ext3.std);
      ("ixt3", Iron_ext3.Ext3.ixt3);
      ("ext3-writeback", Iron_ext3.Modes.writeback);
      ("ext3-data", Iron_ext3.Modes.data);
      ("jfs", Iron_jfs.Jfs.brand);
      ("reiserfs", Iron_reiserfs.Reiserfs.brand);
    ]

(* --- forensics ---------------------------------------------------------- *)

let test_forensics_attribution () =
  (* The §6.1 causal story, minimized: ext3's violations come from a
     journal payload (or commit) write that the reorder window dropped
     while the commit record persisted — and the chain names the
     transaction and epoch. *)
  let r = Explore.explore ~max_states:300 ~forensics:true Iron_ext3.Ext3.std in
  check Alcotest.bool "violations found" true (r.Explore.violations <> []);
  check Alcotest.int "one chain per violation"
    (List.length r.Explore.violations)
    (List.length r.Explore.chains);
  check Alcotest.int "full provenance log kept" r.Explore.log_len
    (List.length r.Explore.log);
  check Alcotest.bool "every chain has culprits" true
    (List.for_all (fun c -> c.Explore.ch_culprits <> []) r.Explore.chains);
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  check Alcotest.bool "some chain blames an orphaned commit record" true
    (List.exists
       (fun c -> contains ~sub:"commit record of txn" c.Explore.ch_summary)
       r.Explore.chains);
  check Alcotest.bool "some culprit is a journal payload write" true
    (List.exists
       (fun c ->
         List.exists (fun cu -> cu.Explore.cu_role = "payload") c.Explore.ch_culprits)
       r.Explore.chains);
  (* Culprit seqs point into the recorded log and carry its provenance. *)
  List.iter
    (fun c ->
      List.iter
        (fun cu ->
          check Alcotest.bool "culprit seq in log range" true
            (cu.Explore.cu_first_seq >= 0 && cu.Explore.cu_first_seq < r.Explore.log_len);
          let l = List.nth r.Explore.log cu.Explore.cu_first_seq in
          check Alcotest.int "culprit block matches log" cu.Explore.cu_block
            l.Explore.lg_block;
          check Alcotest.int "culprit epoch matches log" cu.Explore.cu_epoch
            l.Explore.lg_epoch)
        c.Explore.ch_culprits)
    r.Explore.chains

let test_forensics_does_not_perturb () =
  (* The forensics pass is a pure observer: the violation set (what the
     crash goldens pin) is byte-identical with it on or off, and ixt3
     still survives every state — zero chains. *)
  let off = Explore.explore ~max_states:200 Iron_ext3.Ext3.std in
  let on = Explore.explore ~max_states:200 ~forensics:true Iron_ext3.Ext3.std in
  check Alcotest.bool "same violations with forensics on" true
    (off.Explore.violations = on.Explore.violations
    && off.Explore.states = on.Explore.states
    && off.Explore.tc_detected = on.Explore.tc_detected);
  check Alcotest.bool "forensics off keeps no chains or log" true
    (off.Explore.chains = [] && off.Explore.log = []);
  let ix = Explore.explore ~max_states:200 ~forensics:true Iron_ext3.Ext3.ixt3 in
  check Alcotest.int "ixt3: no violations, no chains" 0
    (List.length ix.Explore.chains);
  check Alcotest.bool "ixt3: provenance log still recorded" true
    (ix.Explore.log <> [])

let test_forensics_jobs_deterministic () =
  (* Chains, culprits and the provenance log — and therefore the
     forensics artifact bytes — are a pure function of the seed. *)
  let r1 =
    Explore.explore ~jobs:1 ~max_states:200 ~forensics:true Iron_ext3.Ext3.std
  in
  let r3 =
    Explore.explore ~jobs:3 ~max_states:200 ~forensics:true Iron_ext3.Ext3.std
  in
  check Alcotest.bool "forensics report is a pure function of the seed" true
    (r1 = r3);
  check Alcotest.bool "chains computed" true (r1.Explore.chains <> []);
  let bytes r =
    Iron_report.Report.to_string
      (Iron_report.Report.of_forensics ~seed:7 ~max_states:200 r)
  in
  check Alcotest.string "artifact bytes identical across -j" (bytes r1)
    (bytes r3)

(* --- enumeration ≡ reference ---------------------------------------- *)

(* The reference: the explorer's enumeration and content digest as they
   were written first — string dedup keys built with Printf, a Printf
   label per candidate, a Hashtbl-and-sort [choices_of], and a digest
   fed from a sorted (block, digest) list. The library replaced all of
   that with flat int-array keys, one merge per candidate, lazy labels
   and per-session memos; its output must not differ by a byte. *)
module Ref = struct
  module Wlog = Iron_crash.Wlog
  module Prng = Iron_util.Prng
  module Sha1 = Iron_util.Sha1

  type spec = {
    label : string;
    choices : (int * int) array;
    torn : (int * int) option;
  }

  type window = {
    w_name : string;
    durable_last : (int * int) list;
    blocks : int array;
    groups : int array array;
  }

  let window_of entries ~name ~in_durable ~in_window =
    let durable = Hashtbl.create 64 in
    Array.iteri
      (fun i (e : Wlog.entry) ->
        if in_durable e then Hashtbl.replace durable e.Wlog.w_block i)
      entries;
    let order = ref [] in
    let groups : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
    Array.iteri
      (fun i (e : Wlog.entry) ->
        if in_window e then
          match Hashtbl.find_opt groups e.Wlog.w_block with
          | Some l -> l := i :: !l
          | None ->
              Hashtbl.add groups e.Wlog.w_block (ref [ i ]);
              order := e.Wlog.w_block :: !order)
      entries;
    let blocks = Array.of_list (List.rev !order) in
    {
      w_name = name;
      durable_last =
        List.sort compare
          (Hashtbl.fold (fun b i acc -> (b, i) :: acc) durable []);
      blocks;
      groups =
        Array.map
          (fun b -> Array.of_list (List.rev !(Hashtbl.find groups b)))
          blocks;
    }

  let choices_of w counts =
    let m = Hashtbl.create 64 in
    List.iter (fun (b, i) -> Hashtbl.replace m b i) w.durable_last;
    Array.iteri
      (fun j c ->
        if c > 0 then Hashtbl.replace m w.blocks.(j) w.groups.(j).(c - 1))
      counts;
    Array.of_list
      (List.sort compare (Hashtbl.fold (fun b i acc -> (b, i) :: acc) m []))

  let key_of choices torn =
    let buf = Buffer.create 128 in
    Array.iter
      (fun (b, i) -> Buffer.add_string buf (Printf.sprintf "%d:%d;" b i))
      choices;
    (match torn with
    | Some (i, len) -> Buffer.add_string buf (Printf.sprintf "T%d:%d" i len)
    | None -> ());
    Buffer.contents buf

  let enumerate ~seed ~max_states ~(entries : Wlog.entry array) ~n_epochs =
    let seen = Hashtbl.create 1024 in
    let specs = ref [] in
    let n_specs = ref 0 in
    let add label choices torn =
      if !n_specs < max_states then begin
        let key = key_of choices torn in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          specs := { label; choices; torn } :: !specs;
          incr n_specs
        end
      end
    in
    let half =
      if Array.length entries > 0 then Bytes.length entries.(0).Wlog.w_data / 2
      else 2048
    in
    let systematic w =
      let counts = Array.make (Array.length w.blocks) 0 in
      add (w.w_name ^ "/cut0") (choices_of w counts) None;
      let seq_order =
        let l = ref [] in
        Array.iteri
          (fun j g -> Array.iter (fun i -> l := (i, j) :: !l) g)
          w.groups;
        List.sort compare !l
      in
      List.iteri
        (fun n (_, j) ->
          counts.(j) <- counts.(j) + 1;
          add
            (Printf.sprintf "%s/cut%d" w.w_name (n + 1))
            (choices_of w counts) None)
        seq_order;
      Array.iteri
        (fun j g ->
          for kept = 0 to Array.length g - 1 do
            Array.iteri (fun j' g' -> counts.(j') <- Array.length g') w.groups;
            counts.(j) <- kept;
            let choices = choices_of w counts in
            add
              (Printf.sprintf "%s/drop blk %d w%d" w.w_name w.blocks.(j) kept)
              choices None;
            add
              (Printf.sprintf "%s/torn blk %d w%d" w.w_name w.blocks.(j) kept)
              choices
              (Some (g.(kept), half))
          done)
        w.groups
    in
    let windows = ref [] in
    for e = 0 to n_epochs do
      let w =
        window_of entries ~name:(Printf.sprintf "e%d" e)
          ~in_durable:(fun en -> en.Wlog.w_epoch < e)
          ~in_window:(fun en -> en.Wlog.w_epoch = e)
      in
      if Array.length w.blocks > 0 then windows := w :: !windows
    done;
    let whole =
      window_of entries ~name:"all"
        ~in_durable:(fun _ -> false)
        ~in_window:(fun _ -> true)
    in
    List.iter systematic (List.rev !windows @ [ whole ]);
    if Array.length whole.blocks > 0 then begin
      let rng = Prng.create (seed lxor 0xC4A54) in
      let counts = Array.make (Array.length whole.blocks) 0 in
      let attempts = ref 0 in
      while !n_specs < max_states && !attempts < 16 * max_states do
        incr attempts;
        Array.iteri
          (fun j g -> counts.(j) <- Prng.int rng (Array.length g + 1))
          whole.groups;
        let torn =
          if Prng.int rng 4 = 0 then begin
            let j = Prng.int rng (Array.length whole.blocks) in
            let g = whole.groups.(j) in
            if counts.(j) < Array.length g then
              Some (g.(counts.(j)), 1 + Prng.int rng (max 1 ((half * 2) - 1)))
            else None
          end
          else None
        in
        add
          (Printf.sprintf "all/rand%d" !attempts)
          (choices_of whole counts) torn
      done
    end;
    List.rev !specs

  let digest ~baseline ~(entries : Wlog.entry array) spec =
    let base b = Memdisk.image_block baseline b in
    let torn_block, torn_bytes =
      match spec.torn with
      | None -> (-1, Bytes.empty)
      | Some (i, len) ->
          let e = entries.(i) in
          let b = e.Wlog.w_block in
          let under = ref (base b) in
          Array.iter
            (fun (b', i') -> if b' = b then under := entries.(i').Wlog.w_data)
            spec.choices;
          let cur = Bytes.copy !under in
          Bytes.blit e.Wlog.w_data 0 cur 0
            (min len (Bytes.length e.Wlog.w_data));
          (b, cur)
    in
    let parts = ref [] in
    Array.iter
      (fun (b, i) ->
        let data = entries.(i).Wlog.w_data in
        if b <> torn_block && not (Bytes.equal data (base b)) then
          parts := (b, Sha1.to_raw (Sha1.digest data)) :: !parts)
      spec.choices;
    if torn_block >= 0 && not (Bytes.equal torn_bytes (base torn_block)) then
      parts := (torn_block, Sha1.to_raw (Sha1.digest torn_bytes)) :: !parts;
    let ctx = Sha1.init () in
    List.iter
      (fun (b, d) ->
        Sha1.feed ctx (Bytes.unsafe_of_string (Printf.sprintf "%d:" b));
        Sha1.feed ctx (Bytes.unsafe_of_string d))
      (List.sort compare !parts);
    Sha1.to_raw (Sha1.finalize ctx)
end

module Gen = Iron_fuzz.Gen

let fuzz_params =
  { Memdisk.default_params with Memdisk.num_blocks = 2048; seed = 7 lxor 0xb3 }

let brands = [| Iron_ext3.Ext3.std; Iron_ext3.Ext3.ixt3 |]

(* One frozen base image per brand, built on first use. *)
let bases =
  Array.map
    (fun brand ->
      lazy (Explore.make_base ~params:fuzz_params ~setup:Gen.setup brand))
    brands

let seq2_workloads =
  lazy (Array.of_list (Gen.workloads ~seq:2 ~seed:0 ~samples:0))

let flat pairs =
  Array.concat (List.map (fun (b, i) -> [| b; i |]) (Array.to_list pairs))

let test_enumerate_matches_reference =
  let caps = [| 1; 7; 150; 400 |] in
  let gen =
    QCheck.Gen.(
      quad (int_bound 1) (int_bound 1405) (int_bound 1_000_000) (int_bound 3))
  in
  let print (b, w, seed, cap) =
    Printf.sprintf "%s %S seed %d max_states %d"
      (Fs.brand_name brands.(b))
      (Gen.to_string (Lazy.force seq2_workloads).(w))
      seed caps.(cap)
  in
  QCheck.Test.make ~name:"explore: enumerate and spec_digest = reference"
    ~count:60 (QCheck.make ~print gen) (fun (b, w, seed, cap) ->
      let brand = brands.(b) and max_states = caps.(cap) in
      let wl = (Lazy.force seq2_workloads).(w) in
      let tr = Gen.tracker () in
      let session =
        Explore.record_session ~params:fuzz_params ~base:(Lazy.force bases.(b))
          ~ops:(fun fsb ~closed_epochs -> Gen.run fsb ~closed_epochs tr wl)
          brand
      in
      let entries = Explore.session_entries session in
      let got = Explore.enumerate_session ~seed ~max_states session in
      let want =
        Ref.enumerate ~seed ~max_states ~entries
          ~n_epochs:(Explore.session_epochs session)
      in
      if List.length got <> List.length want then
        QCheck.Test.fail_reportf "%d specs, reference %d" (List.length got)
          (List.length want);
      List.iteri
        (fun n (g, (r : Ref.spec)) ->
          let fail what =
            QCheck.Test.fail_reportf "spec %d (%s): %s differs" n r.Ref.label
              what
          in
          if Explore.spec_label g <> r.Ref.label then
            QCheck.Test.fail_reportf "spec %d: label %S, reference %S" n
              (Explore.spec_label g) r.Ref.label;
          if Explore.spec_choices g <> flat r.Ref.choices then fail "choices";
          if Explore.spec_torn g <> r.Ref.torn then fail "torn write";
          let baseline = Explore.session_baseline session in
          if Explore.spec_digest session g <> Ref.digest ~baseline ~entries r
          then fail "digest")
        (List.combine got want);
      true)

(* The per-domain scratch device is keyed on the whole geometry: a
   session at 4096-byte blocks followed by a base at 1024-byte blocks
   on the same domain and the same block count must get a fresh
   scratch, not restore a 1 KiB image onto a 4 KiB device. *)
let test_scratch_geometry () =
  let brand = Iron_ext3.Ext3.std in
  let p4 =
    { Memdisk.default_params with Memdisk.num_blocks = 2048; seed = 3 }
  in
  let creat_victim (Fs.Boxed ((module F), t)) ~closed_epochs:_ =
    (match F.creat t "/victim" with
    | Ok fd -> ignore (F.close t fd)
    | Error _ -> Alcotest.fail "creat /victim");
    match F.sync t with Ok () -> () | Error _ -> Alcotest.fail "sync"
  in
  let base4 = Explore.make_base ~params:p4 ~setup:(fun _ -> ()) brand in
  let s4 =
    Explore.record_session ~params:p4 ~base:base4 ~ops:creat_victim brand
  in
  check Alcotest.bool "4 KiB session recorded writes" true
    (Explore.session_log_len s4 > 0);
  let p1 = { p4 with Memdisk.block_size = 1024 } in
  let base1 = Explore.make_base ~params:p1 ~setup:(fun _ -> ()) brand in
  check Alcotest.int "1 KiB base image" 1024
    (Bytes.length (Memdisk.image_block base1 0));
  let s1 =
    Explore.record_session ~params:p1 ~base:base1 ~ops:creat_victim brand
  in
  check Alcotest.bool "1 KiB session recorded writes" true
    (Explore.session_log_len s1 > 0);
  (* The whole log persisted: a clean state at the new geometry. *)
  let expects ~epoch:_ = [] in
  let last =
    List.find
      (fun spec -> Explore.spec_epoch s1 spec = Explore.session_epochs s1)
      (Explore.enumerate_session ~seed:1 ~max_states:400 s1)
  in
  let o = Explore.check_spec ~params:p1 ~brand ~fsck:true ~expects s1 last in
  check Alcotest.bool "full-log state mounts and checks clean" true
    (o.Explore.viol = None)

let suites =
  [
    ( "crash.wlog",
      [
        Alcotest.test_case "epoch accounting" `Quick test_epoch_accounting;
        Alcotest.test_case "private data copies" `Quick test_private_copies;
        Alcotest.test_case "failed writes not recorded" `Quick
          test_failed_writes_not_recorded;
        Alcotest.test_case "recording off logs nothing" `Quick
          test_recording_off_logs_nothing;
        Alcotest.test_case "invisible when off (differential)" `Quick
          test_invisible_when_off;
      ] );
    ( "crash.explore",
      [
        Alcotest.test_case "ext3 corrupts, ixt3 detects (Tc)" `Slow
          test_ext3_vs_ixt3;
        Alcotest.test_case "-j cannot change the report" `Slow
          test_jobs_deterministic;
        Alcotest.test_case "checkpoint precedes the log-tail advance" `Quick
          test_checkpoint_tail_advance;
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| 1606 |])
          test_enumerate_matches_reference;
        Alcotest.test_case "scratch keyed on block size and count" `Quick
          test_scratch_geometry;
      ] );
    ( "crash.forensics",
      [
        Alcotest.test_case "violations attribute to culprit writes" `Slow
          test_forensics_attribution;
        Alcotest.test_case "forensics is a pure observer" `Slow
          test_forensics_does_not_perturb;
        Alcotest.test_case "-j cannot change chains or artifact bytes" `Slow
          test_forensics_jobs_deterministic;
      ] );
  ]
