(* The benchmark's program. One process runs one workload once, as
   cold as `iron <cmd>` does, and prints one JSON line; run.py starts
   a fresh process per repetition and aggregates.

     bench.exe run --workload W [--seed N] [--trace] [--setup-only]
                   [--root DIR]
     bench.exe reference       time the fixed host-speed reference loop
     bench.exe selftest        self-time arithmetic and metric names
     bench.exe transparency    traced artifacts = untraced, golden seed

   Every workload goes through the same public entry points the CLI
   uses, at -j 1 (Pool is deliberately unmeasured: on a 2-CPU host a
   -j 2 seven-brand fingerprint was no faster than -j 1). *)

module Fs = Iron_vfs.Fs
module Obs = Iron_obs.Obs
module Json = Iron_report.Json
module Report = Iron_report.Report
module Driver = Iron_core.Driver
module Experiment = Iron_core.Experiment
module Explore = Iron_crash.Explore
module Fuzz = Iron_fuzz.Fuzz
module Traffic = Iron_traffic.Traffic

let golden_seed = Experiment.default_seed
let max_states = 1000
let fuzz_seq = 2

(* The CLI's brand registry (bin/iron.ml). *)
let brands =
  [
    ("ext3", Iron_ext3.Ext3.std);
    ("reiserfs", Iron_reiserfs.Reiserfs.brand);
    ("jfs", Iron_jfs.Jfs.brand);
    ("ntfs", Iron_ntfs.Ntfs.brand);
    ("ixt3", Iron_ext3.Ext3.ixt3);
    ("ext3-writeback", Iron_ext3.Modes.writeback);
    ("ext3-data", Iron_ext3.Modes.data);
  ]

let brand name = List.assoc name brands

(* What the measured calls return: the artifacts (checked against
   golden/ at the golden seed, by SHA-1 across repeats elsewhere),
   named checks of unit counts and the paper's §6.1 invariants, and
   per-layer metrics read off the report records. *)
type result = {
  artifacts : Report.t list;
  checks : (string * bool) list;
  work : (string * float) list;
}

type workload = {
  name : string;
  expected : string list;  (** artifact file names diffed at the golden seed *)
  n_checks : int;  (** [List.length checks] of a finished run *)
  setup : seed:int -> wrap:(Fs.brand -> Fs.brand) -> unit -> result;
      (** [setup ~seed ~wrap] does the untimed preparation and returns
          the measured calls *)
}

let sum f l = List.fold_left (fun s x -> s + f x) 0 l
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The §4 failure-policy campaign over all seven brands: the only
   workload that runs ReiserFS/JFS/NTFS, and the heaviest on the
   Fault matcher, per-job Cow.restore and the classifier. *)
let campaign_fses = List.map fst brands

let campaign =
  {
    name = "campaign";
    expected = List.map (fun fs -> "fingerprint-" ^ fs ^ ".json") campaign_fses;
    n_checks = List.length campaign_fses;
    setup =
      (fun ~seed ~wrap ->
        let plans =
          List.map (fun fs -> Experiment.plan ~seed (wrap (brand fs))) campaign_fses
        in
        fun () ->
          let runs = List.map (fun p -> (p, Driver.run ~jobs:1 p)) plans in
          let reports = List.map snd runs in
          let stat f = sum (fun (r : Driver.report) -> f r.Driver.stats) reports in
          let fired kind =
            sum
              (fun (r : Driver.report) ->
                sum
                  (fun (m : Driver.matrix) ->
                    if m.Driver.fault <> kind then 0
                    else
                      sum
                        (fun row ->
                          sum (fun col -> (m.Driver.cell row col).Driver.fired) m.Driver.cols)
                        m.Driver.rows)
                  r.Driver.matrices)
              reports
          in
          {
            artifacts = List.map (Report.of_fingerprint ~seed) reports;
            checks =
              List.map
                (fun (p, (r : Driver.report)) ->
                  ( r.Driver.name ^ " jobs_total",
                    r.Driver.stats.Driver.jobs_total = Experiment.total p ))
                runs;
            work =
              [
                ("core.jobs_total", float_of_int (stat (fun s -> s.Driver.jobs_total)));
                ( "core.fired_ratio",
                  ratio
                    (stat (fun s -> s.Driver.jobs_fired))
                    (stat (fun s -> s.Driver.jobs_total)) );
                ( "fault.inject.fail_read",
                  float_of_int (fired Iron_core.Taxonomy.Read_failure) );
                ( "fault.inject.fail_write",
                  float_of_int (fired Iron_core.Taxonomy.Write_failure) );
                ("fault.inject.corrupt", float_of_int (fired Iron_core.Taxonomy.Corruption));
              ];
          });
  }

(* §6.1 crash exploration with forensics on the ext3/ixt3 pair: the
   materialize -> remount -> check loop, journal recovery on every
   mount, fsck and the forensics probes. *)
let pair = [ "ext3"; "ixt3" ]

let crash =
  {
    name = "crash";
    expected =
      List.concat_map (fun fs -> [ "crash-" ^ fs ^ ".json"; "forensics-" ^ fs ^ ".json" ]) pair;
    n_checks = 2 * List.length pair;
    setup =
      (fun ~seed ~wrap ->
        let bs = List.map (fun fs -> wrap (brand fs)) pair in
        fun () ->
          let rs =
            List.map
              (fun b -> Explore.explore ~jobs:1 ~seed ~max_states ~forensics:true b)
              bs
          in
          {
            artifacts =
              List.concat_map
                (fun r ->
                  [ Report.of_crash ~seed ~max_states r; Report.of_forensics ~seed ~max_states r ])
                rs;
            checks =
              List.concat_map
                (fun (r : Explore.report) ->
                  [
                    (r.Explore.fs ^ " states", r.Explore.states = max_states);
                    ( r.Explore.fs ^ " violations",
                      if r.Explore.fs = "ixt3" then r.Explore.violations = []
                      else r.Explore.violations <> [] );
                  ])
                rs;
            work =
              [
                ("crash.states", float_of_int (sum (fun r -> r.Explore.states) rs));
                ( "crash.forensics.probes",
                  float_of_int
                    (sum (fun r -> sum (fun c -> c.Explore.ch_probes) r.Explore.chains) rs) );
              ];
          });
  }

(* Multi-tenant traffic on a 1 GiB Sparse volume: the same FS code
   driven write-heavy, with group commit and checkpointing. *)
let traffic =
  {
    name = "traffic";
    expected = List.map (fun fs -> "traffic-" ^ fs ^ ".json") pair;
    n_checks = 2 * List.length pair;
    setup =
      (fun ~seed ~wrap ->
        let cfg = { Traffic.default with seed } in
        let bs = List.map (fun fs -> wrap (brand fs)) pair in
        fun () ->
          let rs = List.map (Traffic.run ~jobs:1 cfg) bs in
          let total f = float_of_int (sum f rs) in
          {
            artifacts = List.map Report.of_traffic rs;
            checks =
              List.concat_map
                (fun (r : Traffic.report) ->
                  [
                    (r.Traffic.r_fs ^ " states", r.Traffic.r_states = cfg.Traffic.states);
                    ( r.Traffic.r_fs ^ " violations",
                      if r.Traffic.r_fs = "ixt3" then
                        r.Traffic.r_viol = 0 && r.Traffic.r_mount_viol = 0
                      else r.Traffic.r_cross > 0 );
                  ])
                rs;
            work =
              [
                ("traffic.ops", total (fun r -> r.Traffic.r_ops));
                ("traffic.errors", total (fun r -> r.Traffic.r_errors));
                ("traffic.chunks_touched", total (fun r -> r.Traffic.r_chunks_touched));
              ];
          });
  }

(* B3 fuzzing, every workload of length <= 2 on ext3: the only
   workload that runs lib/fuzz (Gen, the replay oracle, SHA-1 corpus
   dedup, minimization). *)
let fuzz =
  {
    name = "fuzz";
    expected = [ "fuzz-ext3.json" ];
    n_checks = 1;
    setup =
      (fun ~seed ~wrap ->
        let b = wrap (brand "ext3") in
        let ops = List.length Iron_fuzz.Gen.alphabet in
        fun () ->
          let r = Fuzz.campaign ~jobs:1 ~seq:fuzz_seq ~seed b in
          {
            artifacts = [ Report.of_fuzz r ];
            checks = [ ("ext3 workloads", r.Fuzz.fz_workloads = ops + (ops * ops)) ];
            work =
              [
                ("fuzz.states_raw", float_of_int r.Fuzz.fz_states_raw);
                ("fuzz.dedup_ratio", ratio r.Fuzz.fz_states r.Fuzz.fz_states_raw);
                ("fuzz.peak_log_bytes", float_of_int r.Fuzz.fz_peak_bytes);
              ];
          });
  }

let workloads = [ campaign; crash; traffic; fuzz ]

(* ---- expected artifacts ------------------------------------------ *)

(* Reference artifacts for outputs with no golden (the ntfs
   fingerprint, the seq-2 fuzz campaign) live in perfbench/ref and
   take precedence over golden/ files of the same name. *)
let expected_path ~root name =
  let r = Filename.concat root (Filename.concat "perfbench/ref" name) in
  if Sys.file_exists r then r else Filename.concat root (Filename.concat "golden" name)

let rec cells = function
  | Json.List l -> List.fold_left (fun n v -> n + cells v) 0 l
  | Json.Assoc l -> List.fold_left (fun n (_, v) -> n + cells v) 0 l
  | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.String _ -> 1

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_expected ~root w =
  List.map
    (fun name ->
      let path = expected_path ~root name in
      let text = read_file path in
      match (Report.of_string text, Json.of_string text) with
      | Ok art, Ok json -> (name, art, cells json)
      | Error e, _ | _, Error e -> failwith (path ^ ": " ^ e))
    w.expected

(* ---- one repetition ---------------------------------------------- *)

let encode = Tracer.acc ()

let measure ~trace measured =
  let obs = Obs.create () in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let outcome =
    match (if trace then Obs.with_ambient obs measured else measured ()) with
    | r ->
        let encoded =
          Tracer.timed encode (fun () ->
              List.map (fun a -> (Report.filename a, Report.to_string a)) r.artifacts)
        in
        Ok (r, encoded)
    | exception e -> Error (Printexc.to_string e)
  in
  let t1 = Unix.gettimeofday () in
  let g1 = Gc.quick_stat () in
  (t0, t1 -. t0, g0, g1, Obs.snapshot obs, outcome)

let counter snap path =
  match List.assoc_opt path snap with
  | Some (Obs.Counter n) -> float_of_int n
  | Some (Obs.Gauge _ | Obs.Histogram _) | None -> 0.

let alloc_words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

(* The traced run's per-layer metrics, as (name, value, unit). Metrics
   a workload's report records do not carry read 0. *)
let layer_metrics ~window ~(g0 : Gc.stat) ~(g1 : Gc.stat) ~snap ~work ~diff_s ~bytes =
  let from_work name = Option.value ~default:0. (List.assoc_opt name work) in
  let layer = Tracer.metrics () in
  let mounts = List.assoc "vfs.mount.calls" (List.map (fun (n, v, _) -> (n, v)) layer) in
  let states = from_work "crash.states" in
  let gc_alloc = alloc_words g1 -. alloc_words g0 in
  layer
  @ [
      ("harness.self_s", window -. Tracer.top.Tracer.self_s, "s");
      ("harness.alloc_words", gc_alloc -. Tracer.top.Tracer.self_words, "words");
      ("report.encode_s", encode.Tracer.self_s, "s");
      ("report.diff_s", diff_s, "s");
      ("report.bytes", float_of_int bytes, "B");
      ("jrnl.commit", counter snap "jrnl.commit", "count");
      ("jrnl.checkpoint", counter snap "jrnl.checkpoint", "count");
      ("jrnl.recover", counter snap "jrnl.recover", "count");
      ("jrnl.group_commit.coalesced", counter snap "jrnl.group_commit.coalesced", "count");
      ("fault.inject.fail_read", from_work "fault.inject.fail_read", "count");
      ("fault.inject.fail_write", from_work "fault.inject.fail_write", "count");
      ("fault.inject.corrupt", from_work "fault.inject.corrupt", "count");
      ("core.jobs_total", from_work "core.jobs_total", "count");
      ("core.fired_ratio", from_work "core.fired_ratio", "ratio");
      ("crash.states", states, "count");
      ("crash.mounts_per_state", (if states > 0. then mounts /. states else 0.), "ratio");
      ("crash.forensics.probes", from_work "crash.forensics.probes", "count");
      ("fuzz.states_raw", from_work "fuzz.states_raw", "count");
      ("fuzz.dedup_ratio", from_work "fuzz.dedup_ratio", "ratio");
      ("fuzz.peak_log_bytes", from_work "fuzz.peak_log_bytes", "B");
      ("traffic.ops", from_work "traffic.ops", "count");
      ("traffic.errors", from_work "traffic.errors", "count");
      ("traffic.chunks_touched", from_work "traffic.chunks_touched", "count");
      ("gc.alloc_words", gc_alloc, "words");
      ( "gc.minor_collections",
        float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections),
        "count" );
      ( "gc.major_collections",
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections),
        "count" );
      ("gc.top_heap_words", float_of_int g1.Gc.top_heap_words, "words");
    ]

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let run ~root ~workload ~seed ~trace ~setup_only =
  let w = List.find (fun w -> w.name = workload) workloads in
  let expected = if seed = golden_seed then load_expected ~root w else [] in
  let measured = w.setup ~seed ~wrap:(if trace then Tracer.brand else Fun.id) in
  if setup_only then
    print_endline (Json.to_string ~indent:false (Json.Assoc [ ("t_first", Json.Float (Unix.gettimeofday ())) ]))
  else begin
    let t_first, window, g0, g1, snap, outcome = measure ~trace measured in
    let attempted = ref 0 and failed = ref 0 and notes = ref [] in
    let check n ok note =
      attempted := !attempted + n;
      if ok <> n then begin
        failed := !failed + (n - ok);
        notes := note :: !notes
      end
    in
    let diff_s = ref 0. and bytes = ref 0 in
    let timed_diff golden fresh =
      let t = Unix.gettimeofday () in
      let d = Report.diff golden fresh in
      diff_s := !diff_s +. (Unix.gettimeofday () -. t);
      d
    in
    let work, encoded =
      match outcome with
      | Error e ->
          let n = 1 + w.n_checks + List.fold_left (fun s (_, _, c) -> s + c) 0 expected in
          check n 0 ("raised: " ^ e);
          ([], [])
      | Ok (r, encoded) ->
          check 1 1 "";
          List.iter (fun (name, ok) -> check 1 (Bool.to_int ok) name) r.checks;
          List.iter
            (fun (name, golden, n) ->
              match List.find_opt (fun a -> Report.filename a = name) r.artifacts with
              | None -> check n 0 (name ^ ": not produced")
              | Some fresh -> (
                  match timed_diff golden fresh with
                  | Ok [] -> check n n ""
                  | Ok items ->
                      check n (max 0 (n - List.length items))
                        (Printf.sprintf "%s: %d cells differ" name (List.length items))
                  | Error e -> check n 0 (name ^ ": " ^ e)))
            expected;
          (* Off the golden seed the traced run still prices the
             differ: each artifact against its own re-parse. *)
          if trace && expected = [] then
            List.iter2
              (fun art (name, text) ->
                match Report.of_string text with
                | Ok back -> check 1 (Bool.to_int (timed_diff back art = Ok [])) (name ^ ": round trip")
                | Error e -> check 1 0 (name ^ ": " ^ e))
              r.artifacts encoded;
          bytes := List.fold_left (fun s (_, t) -> s + String.length t) 0 encoded;
          (r.work, encoded)
    in
    let layers =
      if not trace then []
      else
        List.map
          (fun (n, v, u) -> (n, Json.List [ Json.Float v; Json.String u ]))
          (layer_metrics ~window ~g0 ~g1 ~snap ~work ~diff_s:!diff_s ~bytes:!bytes)
    in
    let digests =
      List.map
        (fun (name, text) ->
          (name, Json.String (Iron_util.Sha1.to_hex (Iron_util.Sha1.digest_string text))))
        encoded
    in
    List.iter (fun n -> prerr_endline ("perfbench: check failed: " ^ n)) (List.rev !notes);
    print_endline
      (Json.to_string ~indent:false
         (Json.Assoc
            [
              ("t_first", Json.Float t_first);
              ("run_s", Json.Float window);
              ("peak_rss_mb", Json.Float (peak_rss_mb ()));
              ("attempted", Json.Int !attempted);
              ("failed", Json.Int !failed);
              ("artifacts", Json.Assoc digests);
              ("layers", Json.Assoc layers);
            ]))
  end

(* ---- host-speed reference ---------------------------------------- *)

(* A fixed loop that uses nothing from the program: 4 KiB buffer
   allocation and copies, hashing, a hashtable and a sort, the mix the
   workloads spend their time on. run.py times it between repetitions
   and scales run_s by it, so the drift of a shared host's speed
   cancels out. *)
let reference () =
  let t = Unix.gettimeofday () in
  let tbl = Hashtbl.create 4096 in
  let blk = Bytes.make 4096 'a' in
  for i = 0 to 75_000 do
    let b = Bytes.create 4096 in
    Bytes.blit blk 0 b 0 4096;
    Bytes.set b (i land 4095) 'b';
    Hashtbl.replace tbl (i land 8191) b;
    if i land 31 = 0 then ignore (Digest.bytes b)
  done;
  let l = List.init 150_000 (fun i -> ((i * 7919) mod 100_003, string_of_int i)) in
  ignore (Sys.opaque_identity (List.sort compare l));
  let ref_s = Unix.gettimeofday () -. t in
  print_endline (Json.to_string ~indent:false (Json.Assoc [ ("ref_s", Json.Float ref_s) ]))

(* ---- tests ------------------------------------------------------- *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 1) fmt

(* Nested spans under a scripted clock: an outer call of 10 units
   enclosing an inner one of 3 keeps 7 as self time; a call that raises
   still closes its span. Only unenclosed spans add to the top level. *)
let test_self_time () =
  let ticks = ref [ 0.; 2.; 5.; 10.; 20.; 21. ] in
  let saved = !Tracer.clock in
  (Tracer.clock :=
     fun () ->
       match !ticks with
       | t :: rest ->
           ticks := rest;
           t
       | [] -> fail "clock read too often");
  Tracer.reset ();
  let outer = Tracer.acc () and inner = Tracer.acc () in
  Tracer.timed outer (fun () -> Tracer.timed inner (fun () -> ()));
  (try Tracer.timed inner (fun () -> raise Exit) with Exit -> ());
  Tracer.clock := saved;
  let expect what got want =
    if Float.abs (got -. want) > 1e-9 then fail "%s: %g, expected %g" what got want
  in
  expect "outer self" outer.Tracer.self_s 7.;
  expect "inner self" inner.Tracer.self_s 4.;
  expect "top" Tracer.top.Tracer.self_s 11.;
  if outer.Tracer.calls <> 1 || inner.Tracer.calls <> 2 then fail "call counts";
  if !Tracer.stack <> [] then fail "span stack not empty after an exception";
  Tracer.reset ()

let test_names () =
  let g = Gc.quick_stat () in
  let names =
    List.map
      (fun (n, _, _) -> n)
      (layer_metrics ~window:0. ~g0:g ~g1:g ~snap:[] ~work:[] ~diff_s:0. ~bytes:0)
  in
  let ok c =
    match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false
  in
  List.iter
    (fun n -> if n = "" || not (String.for_all ok n) then fail "bad metric name %S" n)
    names;
  if List.length (List.sort_uniq compare names) <> List.length names then
    fail "duplicate metric names"

(* At the golden seed the traced run's artifacts are byte-identical to
   the untraced run's, on every workload. *)
let transparency ~root =
  List.iter
    (fun w ->
      let artifacts ~trace =
        let wrap = if trace then Tracer.brand else Fun.id in
        let measured = w.setup ~seed:golden_seed ~wrap in
        let r =
          if trace then Obs.with_ambient (Obs.create ()) measured else measured ()
        in
        List.map Report.to_string r.artifacts
      in
      let plain = artifacts ~trace:false in
      let traced = artifacts ~trace:true in
      if plain <> traced then fail "%s: traced artifacts differ from untraced" w.name;
      let golden = List.map (fun (_, a, _) -> Report.to_string a) (load_expected ~root w) in
      if List.sort compare plain <> List.sort compare golden then
        fail "%s: artifacts differ from the expected ones" w.name;
      Printf.printf "ok   %s (%d artifacts)\n%!" w.name (List.length plain))
    workloads

let () =
  let workload = ref "" and seed = ref golden_seed and trace = ref false in
  let setup_only = ref false and root = ref "." in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W campaign | crash | traffic | fuzz");
      ("--seed", Arg.Set_int seed, "N input seed (default: the golden seed)");
      ("--trace", Arg.Set trace, " run the traced (per-layer) variant");
      ("--setup-only", Arg.Set setup_only, " stop before the first measured call");
      ("--root", Arg.Set_string root, "DIR repo root holding golden/ and perfbench/ref/");
    ]
  in
  let usage = "bench.exe (run [OPTIONS] | reference | selftest | transparency)" in
  match Array.to_list Sys.argv with
  | _ :: "reference" :: _ -> reference ()
  | _ :: "selftest" :: _ ->
      test_self_time ();
      test_names ();
      print_endline "ok   perfbench selftest"
  | _ :: "transparency" :: rest ->
      Arg.parse_argv ~current:(ref 0) (Array.of_list ("transparency" :: rest)) specs ignore usage;
      transparency ~root:!root
  | _ :: "run" :: rest ->
      (try
         Arg.parse_argv ~current:(ref 0) (Array.of_list ("run" :: rest)) specs
           (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
           usage
       with Arg.Bad m | Arg.Help m ->
         prerr_string m;
         exit 2);
      if not (List.exists (fun w -> w.name = !workload) workloads) then begin
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
      end;
      run ~root:!root ~workload:!workload ~seed:!seed ~trace:!trace ~setup_only:!setup_only
  | _ ->
      prerr_endline usage;
      exit 2
