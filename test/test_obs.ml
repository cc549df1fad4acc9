(* Tests for the observability layer (lib/obs) and its wiring.

   The layer's contract has three load-bearing parts:

   - the bounded ring keeps exactly the newest [cap] items and counts
     the evictions (qcheck over random cap/length);
   - histogram bucket math: an observation lands in the first bucket
     whose bound is >= v, sums and counts reconcile (qcheck against a
     reference fold);
   - determinism: an observed fingerprint campaign exports
     byte-identical metrics JSONL and Chrome traces for -j 1 and -j 4,
     which is what makes `iron stats` and `--trace` reproducible.

   The two satellite bugfixes are pinned here too: Klog entries carry
   the device's simulated time, and the injector's I/O trace is
   bounded by [trace_cap]. *)

module Obs = Iron_obs.Obs
module Ring = Iron_obs.Ring
module Json = Iron_report.Json

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let contains hay needle =
  let hn = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= hn && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- ring ------------------------------------------------------------- *)

let test_ring_basic () =
  let r = Ring.create 3 in
  check Alcotest.(list int) "empty" [] (Ring.to_list r);
  Ring.push r 1;
  Ring.push r 2;
  check Alcotest.(list int) "partial" [ 1; 2 ] (Ring.to_list r);
  List.iter (Ring.push r) [ 3; 4; 5 ];
  check Alcotest.(list int) "keeps newest" [ 3; 4; 5 ] (Ring.to_list r);
  check Alcotest.int "dropped" 2 (Ring.dropped r);
  Ring.clear r;
  check Alcotest.(list int) "cleared" [] (Ring.to_list r);
  check Alcotest.int "dropped reset" 0 (Ring.dropped r)

let prop_ring_wraparound =
  QCheck.Test.make ~count:200 ~name:"ring keeps the newest cap items"
    QCheck.(pair (int_range 1 17) (small_list small_int))
    (fun (cap, xs) ->
      let r = Ring.create cap in
      let n = List.length xs in
      let expect =
        List.filteri (fun i _ -> i >= n - cap) xs (* last [cap] items *)
      in
      let holds () =
        List.iter (Ring.push r) xs;
        Ring.to_list r = expect
        && Ring.dropped r = max 0 (n - cap)
        && Ring.length r = min n cap
      in
      (* Again after a clear, over the slots the first round grew. *)
      holds () && (Ring.clear r; holds ()))

(* --- histogram bucket math -------------------------------------------- *)

let bounds = [| 1.0; 5.0; 25.0 |]

(* Reference: first bucket whose upper bound is >= v; overflow last. *)
let ref_bucket v =
  let rec go i =
    if i >= Array.length bounds then Array.length bounds
    else if v <= bounds.(i) then i
    else go (i + 1)
  in
  go 0

let prop_histogram_buckets =
  QCheck.Test.make ~count:200 ~name:"histogram bucket math matches reference"
    QCheck.(small_list (float_bound_exclusive 50.0))
    (fun vs ->
      let t = Obs.create () in
      List.iter (fun v -> Obs.observe ~buckets:bounds t "h" v) vs;
      match List.assoc_opt "h" (Obs.snapshot t) with
      | None -> vs = []
      | Some (Obs.Histogram h) ->
          let expect = Array.make (Array.length bounds + 1) 0 in
          List.iter (fun v -> expect.(ref_bucket v) <- expect.(ref_bucket v) + 1) vs;
          h.Obs.counts = expect
          && h.Obs.count = List.length vs
          && Array.fold_left ( + ) 0 h.Obs.counts = h.Obs.count
          && abs_float (h.Obs.sum -. List.fold_left ( +. ) 0.0 vs) < 1e-9
      | Some _ -> false)

(* --- registry + merge -------------------------------------------------- *)

let test_merge () =
  let mk pairs =
    let t = Obs.create () in
    List.iter (fun (p, n) -> Obs.add t p n) pairs;
    Obs.snapshot t
  in
  let merged = Obs.merge [ mk [ ("a", 1); ("b", 2) ]; mk [ ("b", 3); ("c", 4) ] ] in
  check
    Alcotest.(list (pair string int))
    "counters add, paths sorted"
    [ ("a", 1); ("b", 5); ("c", 4) ]
    (List.map
       (fun (p, v) ->
         match v with Obs.Counter n -> (p, n) | _ -> Alcotest.fail "kind")
       merged)

let test_gauge_merge_max () =
  let t1 = Obs.create () and t2 = Obs.create () in
  Obs.set_gauge t1 "g" 3.0;
  Obs.set_gauge t2 "g" 7.0;
  match Obs.merge [ Obs.snapshot t1; Obs.snapshot t2 ] with
  | [ ("g", Obs.Gauge v) ] -> check (Alcotest.float 0.0) "max wins" 7.0 v
  | _ -> Alcotest.fail "unexpected merge shape"

let test_domain_cells_merge () =
  (* Updates from several domains land in per-domain cells; the
     snapshot must still see every increment. *)
  let t = Obs.create () in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Obs.incr t "c"
            done;
            Obs.release t))
  in
  List.iter Domain.join ds;
  match List.assoc_opt "c" (Obs.snapshot t) with
  | Some (Obs.Counter n) -> check Alcotest.int "all increments seen" 4000 n
  | _ -> Alcotest.fail "counter missing"

(* --- span capture ------------------------------------------------------ *)

let test_span_records () =
  let t = Obs.create () in
  let clock = ref 10.0 in
  Obs.set_clock t (fun () -> !clock);
  let r =
    Obs.span t ~subsystem:"s" ~blocks:(3, 9) "op" (fun () ->
        clock := 14.5;
        42)
  in
  check Alcotest.int "result passes through" 42 r;
  match Obs.spans t with
  | [ sp ] ->
      check Alcotest.string "subsystem" "s" sp.Obs.subsystem;
      check Alcotest.string "name" "op" sp.Obs.name;
      check (Alcotest.float 1e-9) "t0" 10.0 sp.Obs.t0;
      check (Alcotest.float 1e-9) "dur" 4.5 sp.Obs.dur;
      check Alcotest.int "blk_lo" 3 sp.Obs.blk_lo;
      check Alcotest.int "blk_hi" 9 sp.Obs.blk_hi;
      (match List.assoc_opt "s.op" (Obs.snapshot t) with
      | Some (Obs.Counter 1) -> ()
      | _ -> Alcotest.fail "span counter missing")
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_ambient_noop () =
  (* Without an ambient context the _a helpers must be inert. *)
  check Alcotest.bool "no ambient" true (Obs.ambient () = None);
  let r = Obs.span_a ~subsystem:"x" "y" (fun () -> 7) in
  check Alcotest.int "span_a passthrough" 7 r;
  Obs.event_a ~subsystem:"x" "y";
  Obs.incr_a "x.y";
  let t = Obs.create () in
  Obs.with_ambient t (fun () ->
      (match Obs.ambient () with
      | Some t' when t' == t -> ()
      | Some _ | None -> Alcotest.fail "ambient not installed");
      Obs.incr_a "c");
  check Alcotest.bool "restored" true (Obs.ambient () = None);
  match Obs.snapshot t with
  | [ ("c", Obs.Counter 1) ] -> ()
  | _ -> Alcotest.fail "ambient incr lost"

(* --- exporters --------------------------------------------------------- *)

let test_exporters_shape () =
  let t = Obs.create () in
  Obs.incr t "a.b";
  Obs.observe ~buckets:[| 1.0 |] t "a.ms" 0.5;
  let jsonl = Obs.jsonl_of_snapshot (Obs.snapshot t) in
  check Alcotest.bool "counter line" true
    (String.length jsonl > 0
    && String.sub jsonl 0 1 = "{"
    && contains jsonl {|"path":"a.b"|});
  let trace = Obs.chrome_trace [ ("p", Obs.spans t) ] in
  check Alcotest.bool "trace is an array" true
    (String.length trace >= 2 && trace.[0] = '[')

let mk_span ?(seq = 0) ~subsystem ~name () =
  {
    Obs.seq;
    tid = 0;
    subsystem;
    name;
    t0 = float_of_int seq;
    dur = 1.0;
    blk_lo = -1;
    blk_hi = -1;
    instant = false;
  }

let test_dropped_meta () =
  (* A truncated span set must say so: both exporters append a meta
     record carrying the eviction count, and emit nothing extra when
     the ring never filled. *)
  let spans = [ mk_span ~subsystem:"s" ~name:"n" () ] in
  let jsonl0 = Obs.jsonl_of_spans spans in
  check Alcotest.bool "no meta when nothing dropped" false
    (contains jsonl0 "spans_dropped");
  let jsonl = Obs.jsonl_of_spans ~dropped:3 spans in
  check Alcotest.bool "jsonl meta record" true
    (contains jsonl {|{"meta":"spans_dropped","dropped":3}|});
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  check Alcotest.bool "meta record is the last line" true
    (match List.rev lines with
    | last :: _ -> contains last "spans_dropped"
    | [] -> false);
  let trace0 = Obs.chrome_trace [ ("p", spans) ] in
  check Alcotest.bool "no trace meta when nothing dropped" false
    (contains trace0 "spans_dropped");
  let trace =
    Obs.chrome_trace ~dropped:[ ("p", 2); ("q", 0) ]
      [ ("p", spans); ("q", spans) ]
  in
  check Alcotest.bool "trace meta instant for p" true
    (contains trace {|"name":"spans_dropped"|} && contains trace {|"dropped":2|});
  check Alcotest.bool "no meta for the clean process" false
    (contains trace {|"dropped":0|})

(* Adversarial subsystem/name strings: whatever bytes a span carries,
   the exporters must emit parseable JSON that round-trips the string
   (the strict artifact parser is the oracle). *)
let nasty_string =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      string_size ~gen:(oneofl
        [ '"'; '\\'; '\n'; '\t'; '\r'; '\x00'; '\x01'; '\x1f'; '/'; 'a'; 'Z'; '0'; ' '; '{'; '['; '}' ])
        (int_range 0 24))

let prop_exporters_escape =
  QCheck.Test.make ~count:200 ~name:"exporters survive adversarial strings"
    (QCheck.pair nasty_string nasty_string)
    (fun (subsystem, name) ->
      let spans = [ mk_span ~subsystem ~name () ] in
      let jsonl = Obs.jsonl_of_spans ~dropped:1 spans in
      List.iter
        (fun line ->
          if line <> "" then
            match Json.of_string line with
            | Ok _ -> ()
            | Error e -> QCheck.Test.fail_reportf "bad JSONL line: %s" e)
        (String.split_on_char '\n' jsonl);
      (* The span line round-trips the exact bytes. *)
      (match Json.of_string (List.hd (String.split_on_char '\n' jsonl)) with
      | Ok j ->
          (match (Json.mem_str "subsystem" j, Json.mem_str "name" j) with
          | Ok s, Ok n ->
              if s <> subsystem || n <> name then
                QCheck.Test.fail_reportf "span strings did not round-trip"
          | _ -> QCheck.Test.fail_reportf "span line lost its strings")
      | Error e -> QCheck.Test.fail_reportf "span line unparseable: %s" e);
      let trace = Obs.chrome_trace ~dropped:[ (name, 1) ] [ (name, spans) ] in
      match Json.of_string trace with
      | Ok (Json.List _) -> true
      | Ok _ -> QCheck.Test.fail_reportf "trace is not a JSON array"
      | Error e -> QCheck.Test.fail_reportf "trace unparseable: %s" e)

(* --- campaign determinism ---------------------------------------------- *)

let observed_campaign jobs =
  let r =
    Iron_core.Driver.fingerprint
      ~faults:[ Iron_core.Taxonomy.Read_failure ]
      ~seed:5 ~jobs ~observe:true Iron_ext3.Ext3.std
  in
  match r.Iron_core.Driver.observed with
  | Some o -> o
  | None -> Alcotest.fail "observe:true produced no observed record"

let test_campaign_metrics_j_independent () =
  let o1 = observed_campaign 1 and o4 = observed_campaign 4 in
  check Alcotest.string "metrics JSONL byte-identical j1 vs j4"
    (Obs.jsonl_of_snapshot o1.Iron_core.Driver.metrics)
    (Obs.jsonl_of_snapshot o4.Iron_core.Driver.metrics);
  check Alcotest.string "chrome trace byte-identical j1 vs j4"
    (Obs.chrome_trace [ ("fs", o1.Iron_core.Driver.spans) ])
    (Obs.chrome_trace [ ("fs", o4.Iron_core.Driver.spans) ])

(* --- satellite bugfixes ------------------------------------------------ *)

let test_klog_simulated_time () =
  let module Klog = Iron_vfs.Klog in
  let clock = ref 0.0 in
  let k = Klog.create ~clock:(fun () -> !clock) () in
  Klog.info k "t" "first";
  clock := 123.5;
  Klog.warn k "t" "second";
  (match Klog.entries k with
  | [ e1; e2 ] ->
      check (Alcotest.float 1e-9) "stamped at log time" 0.0 e1.Klog.time;
      check (Alcotest.float 1e-9) "advances with the clock" 123.5 e2.Klog.time;
      let s = Format.asprintf "%a" Klog.pp_entry e2 in
      check Alcotest.bool "pp shows the timestamp" true
        (contains s "123.500")
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
  let k0 = Klog.create () in
  Klog.info k0 "t" "x";
  match Klog.entries k0 with
  | [ e ] -> check (Alcotest.float 1e-9) "default clock is 0" 0.0 e.Klog.time
  | _ -> Alcotest.fail "one entry expected"

let test_fault_trace_bounded () =
  let module Fault = Iron_fault.Fault in
  let disk = Iron_disk.Memdisk.create () in
  let inj = Fault.create ~trace_cap:4 (Iron_disk.Memdisk.dev disk) in
  let dev = Fault.dev inj in
  for b = 0 to 9 do
    ignore (dev.Iron_disk.Dev.read b)
  done;
  let tr = Fault.trace inj in
  check Alcotest.int "trace bounded" 4 (List.length tr);
  check Alcotest.int "evictions counted" 6 (Fault.trace_dropped inj);
  check
    Alcotest.(list int)
    "newest events survive" [ 6; 7; 8; 9 ]
    (List.map (fun (e : Fault.event) -> e.Fault.block) tr);
  Fault.clear_trace inj;
  check Alcotest.int "clear resets drops" 0 (Fault.trace_dropped inj)

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "ring basic" `Quick test_ring_basic;
        qtest prop_ring_wraparound;
        qtest prop_histogram_buckets;
        Alcotest.test_case "merge counters" `Quick test_merge;
        Alcotest.test_case "gauge merge max" `Quick test_gauge_merge_max;
        Alcotest.test_case "domain cells merge" `Quick test_domain_cells_merge;
        Alcotest.test_case "span records" `Quick test_span_records;
        Alcotest.test_case "ambient no-op" `Quick test_ambient_noop;
        Alcotest.test_case "exporter shapes" `Quick test_exporters_shape;
        Alcotest.test_case "dropped-span meta records" `Quick test_dropped_meta;
        qtest prop_exporters_escape;
        Alcotest.test_case "campaign metrics j-independent" `Slow
          test_campaign_metrics_j_independent;
        Alcotest.test_case "klog simulated time" `Quick test_klog_simulated_time;
        Alcotest.test_case "fault trace bounded" `Quick test_fault_trace_bounded;
      ] );
  ]
