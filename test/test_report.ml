(* Tests for the golden-artifact subsystem (Iron_report).

   The regression gate is only as trustworthy as its codec and differ,
   so each is pinned from both sides:

   - encode/decode round-trips any artifact (qcheck over documents
     generated from the kind table, including hostile strings), and
     encoding is canonical (equal artifacts are byte-equal on disk);
     every committed golden and reference file re-encodes to its own
     bytes;
   - the loader rejects unknown schema versions, unknown kinds and
     malformed members loudly;
   - the differ is exact on policy matrices and crash counts, and
     tolerance-based on timing metrics; changing any one leaf of any
     kind yields exactly one item naming that leaf or its cell;
   - end to end: a real ext3 campaign's artifact survives a
     round-trip unchanged, flipping a single policy cell makes the
     diff fail and name that cell, and `iron diff` counts a golden
     artifact the fresh run no longer produces. *)

module Report = Iron_report.Report
module Json = Iron_report.Json
module Driver = Iron_core.Driver

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* Tiny string helpers so the tests need no extra libraries. *)
let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let replace_once ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then s
    else if String.sub s i m = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)
    else go (i + 1)
  in
  go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Repository files, from the test's build directory or the root. *)
let in_repo path =
  let under d = Filename.concat d path in
  Option.value ~default:path
    (List.find_opt Sys.file_exists [ under ".."; under "."; under "_build/default" ])

(* Artifacts are written as JSON documents and shape-checked on the
   way in. *)
let str s = Json.String s
let int n = Json.Int n

let doc kind members =
  Json.Assoc
    (("schema_version", Json.Int Report.schema_version)
    :: ("kind", Json.String kind) :: members)

let art j =
  match Report.of_json j with Ok a -> a | Error e -> Alcotest.fail e

let json a = Report.to_json a

(* ------------------------------------------------------------------ *)
(* Json unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let test_json_escapes () =
  let nasty = "a\"b\\c\nd\te\r\011\001 end" in
  let v = Json.Assoc [ ("k", Json.String nasty) ] in
  (match Json.of_string (Json.to_string v) with
  | Ok (Json.Assoc [ ("k", Json.String s) ]) ->
      check Alcotest.string "string round-trips through escapes" nasty s
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e);
  (* \u escapes decode to UTF-8 (including a surrogate pair). *)
  match Json.of_string "\"A\\u00e9\\u2713\\ud83d\\ude00\"" with
  | Ok (Json.String s) ->
      check Alcotest.string "unicode escapes"
        "A\xc3\xa9\xe2\x9c\x93\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e

let test_json_rejects_garbage () =
  let bad =
    [
      "{";
      "[1,]";
      "{\"a\":}";
      "nul";
      "1 2";
      "\"unterminated";
      (* a high surrogate must be followed by a low one *)
      "\"\\uD800\\uD800\"";
      (* a low surrogate cannot stand alone *)
      "\"\\uDC00\"";
      (* four hex digits, no int_of_string leniency *)
      "\"\\u1_23\"";
      "{\"schema_version\":1,\"schema_version\":2}";
    ]
  in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    bad

let test_json_int_vs_float () =
  (match Json.of_string "42" with
  | Ok (Json.Int 42) -> ()
  | _ -> Alcotest.fail "42 should parse as Int");
  match Json.of_string "42.5" with
  | Ok (Json.Float f) -> check (Alcotest.float 1e-9) "float" 42.5 f
  | _ -> Alcotest.fail "42.5 should parse as Float"

(* ------------------------------------------------------------------ *)
(* Generators, built from the kind table                               *)
(* ------------------------------------------------------------------ *)

(* Strings that exercise the codec: printable stuff plus quotes,
   backslashes, newlines and control bytes. *)
let gen_string =
  QCheck.Gen.(
    map
      (fun chars ->
        String.concat ""
          (List.map
             (function
               | 0 -> "\""
               | 1 -> "\\"
               | 2 -> "\n"
               | 3 -> "\t"
               | 4 -> "\001"
               | n -> String.make 1 (Char.chr (32 + (n mod 90))))
             chars))
      (small_list (int_bound 120)))

(* A keyed element's identity, as the differ names it. *)
let key_string keys v =
  String.concat ":"
    (List.map
       (fun k ->
         match Json.member k v with
         | Ok (Json.String s) -> s
         | Ok x -> Json.to_string ~indent:false x
         | Error _ -> "")
       keys)

let dedup_by key l =
  List.rev
    (List.fold_left
       (fun acc x -> if List.exists (fun y -> key y = key x) acc then acc else x :: acc)
       [] l)

let rec gen_shape shape =
  let open QCheck.Gen in
  let few g = list_size (int_bound 4) g in
  match shape with
  | Report.Int -> map (fun n -> Json.Int n) (int_bound 100000)
  | Report.Str -> map str gen_string
  | Report.Bool -> map (fun b -> Json.Bool b) bool
  | Report.Counts ->
      map
        (fun kvs -> Json.Assoc (dedup_by fst (List.map (fun (k, v) -> (k, Json.Int v)) kvs)))
        (few (pair gen_string (int_bound 100000)))
  | Report.Obj members -> map (fun fs -> Json.Assoc fs) (gen_members members)
  | Report.Opt s | Report.Cell s -> gen_shape s
  | Report.Arr s -> map (fun l -> Json.List l) (few (gen_shape s))
  | Report.Keyed (keys, s) ->
      map (fun l -> Json.List (dedup_by (key_string keys) l)) (few (gen_shape s))

and gen_members members =
  let open QCheck.Gen in
  List.fold_right
    (fun (k, s) rest ->
      let v =
        match s with
        | Report.Opt s -> opt (gen_shape s)
        | s -> map Option.some (gen_shape s)
      in
      map2 (fun v tl -> match v with Some v -> (k, v) :: tl | None -> tl) v rest)
    members (return [])

let gen_artifact =
  QCheck.Gen.(
    oneofl Report.kinds >>= fun k ->
    map
      (fun members -> (k, art (doc k.Report.name members)))
      (gen_members k.Report.members))

let arb_artifact =
  QCheck.make ~print:(fun (_, a) -> Report.to_string a) gen_artifact

(* Every leaf of a document that is not a key member, with the document
   rebuilt around a changed copy of it and the path a diff item must
   name: the leaf's own JSON path, or its outermost enclosing cell's. *)
let rec leaves ?(keys = []) path shape v =
  match (shape, v) with
  | Report.Cell s, _ -> List.map (fun (_, v') -> (path, v')) (leaves ~keys path s v)
  | Report.Opt s, _ -> leaves ~keys path s v
  | Report.Int, Json.Int n -> [ (path, int ((2 * n) + 10)) ]
  | Report.Str, Json.String s -> [ (path, str (s ^ "~")) ]
  | Report.Bool, Json.Bool b -> [ (path, Json.Bool (not b)) ]
  | Report.Counts, Json.Assoc fs -> fields path (fun _ -> Report.Int) [] fs
  | Report.Obj ms, Json.Assoc fs -> fields path (fun k -> List.assoc k ms) keys fs
  | Report.Arr s, Json.List l -> elements (fun i _ -> Printf.sprintf "%s[%d]" path i) [] s l
  | Report.Keyed (ks, s), Json.List l ->
      elements (fun _ e -> Printf.sprintf "%s[%s]" path (key_string ks e)) ks s l
  | _ -> []

and fields path shape_of keys fs =
  List.concat
    (List.mapi
       (fun i (k, v) ->
         if List.mem k keys then []
         else
           List.map
             (fun (p, v') ->
               (p, Json.Assoc (List.mapi (fun j kv -> if i = j then (k, v') else kv) fs)))
             (leaves (path ^ "/" ^ k) (shape_of k) v))
       fs)

and elements name keys s l =
  List.concat
    (List.mapi
       (fun i e ->
         List.map
           (fun (p, e') -> (p, Json.List (List.mapi (fun j x -> if i = j then e' else x) l)))
           (leaves ~keys (name i e) s e))
       l)

let artifact_leaves (k : Report.kind) a =
  let j = json a in
  let root =
    match Option.map (fun l -> Json.member l j) k.Report.label with
    | Some (Ok (Json.String v)) -> k.Report.name ^ "/" ^ v
    | _ -> k.Report.name
  in
  match j with
  | Json.Assoc fs ->
      fields root (fun m -> List.assoc m k.Report.members) [ "schema_version"; "kind" ] fs
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Round-trip + canonicality                                           *)
(* ------------------------------------------------------------------ *)

let prop_round_trip =
  QCheck.Test.make ~name:"Report encode/decode round-trips" ~count:200
    arb_artifact (fun (_, a) ->
      match Report.of_string (Report.to_string a) with
      | Ok a' -> json a' = json a
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let prop_canonical =
  QCheck.Test.make ~name:"Report encoding is canonical (stable bytes)"
    ~count:100 arb_artifact (fun (_, a) ->
      let s = Report.to_string a in
      match Report.of_string s with
      | Ok a' -> String.equal s (Report.to_string a')
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let prop_single_leaf =
  QCheck.Test.make ~name:"one changed leaf is exactly one item, every kind"
    ~count:300
    (QCheck.pair arb_artifact QCheck.small_nat)
    (fun ((k, a), pick) ->
      match artifact_leaves k a with
      | [] -> true
      | ls -> (
          let want, changed = List.nth ls (pick mod List.length ls) in
          match Report.diff a (art changed) with
          | Ok [ item ] when item.Report.path = want -> true
          | Ok items ->
              QCheck.Test.fail_reportf "%s: want one item at %s, got [%s]" k.Report.name
                want
                (String.concat "; " (List.map (fun i -> i.Report.path) items))
          | Error e -> QCheck.Test.fail_reportf "diff failed: %s" e))

(* Every committed golden and reference artifact goes through the
   codec unchanged and diffs empty against itself. *)
let committed_files () =
  List.concat_map
    (fun dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort compare
      |> List.map (Filename.concat dir))
    [ in_repo "golden"; in_repo "perfbench/ref" ]

let test_committed_round_trip () =
  let files = committed_files () in
  check Alcotest.bool "found the committed artifacts" true (List.length files >= 18);
  List.iter
    (fun path ->
      let text = read_file path in
      match Report.of_string text with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok a ->
          check Alcotest.string (path ^ " re-encodes to its bytes") text
            (Report.to_string a);
          check Alcotest.int (path ^ " diffs empty against itself") 0
            (match Report.diff a a with
            | Ok items -> List.length items
            | Error e -> Alcotest.failf "%s: %s" path e))
    files

(* ------------------------------------------------------------------ *)
(* Loader rejection                                                    *)
(* ------------------------------------------------------------------ *)

let violation (state, kind, detail) =
  Json.Assoc [ ("state", str state); ("kind", str kind); ("detail", str detail) ]

let crash_doc counts =
  doc "crash"
    [
      ("fs", str "ext3");
      ("seed", int 7);
      ("max_states", int 10);
      ("log_len", int 3);
      ("epochs", int 1);
      ("states", int 10);
      ("tc_detected", int 0);
      ("counts", Json.Assoc (List.map (fun (k, v) -> (k, int v)) counts));
      ("violations", Json.List [ violation ("s", "data-loss", "d") ]);
    ]

let sample_crash = art (crash_doc [ ("data-loss", 2) ])

let test_rejects_unknown_version () =
  let s = Report.to_string sample_crash in
  let bumped =
    replace_once ~sub:"\"schema_version\": 1" ~by:"\"schema_version\": 99" s
  in
  match Report.of_string bumped with
  | Ok _ -> Alcotest.fail "accepted schema version 99"
  | Error e ->
      check Alcotest.bool "error names the version" true
        (contains ~sub:"unknown schema version 99" e)

let test_rejects_unknown_kind () =
  let s = Report.to_string sample_crash in
  let bumped =
    replace_once ~sub:"\"kind\": \"crash\"" ~by:"\"kind\": \"mystery\"" s
  in
  match Report.of_string bumped with
  | Ok _ -> Alcotest.fail "accepted unknown kind"
  | Error e ->
      check Alcotest.bool "error names the kind" true
        (contains ~sub:"mystery" e)

let test_rejects_bad_member () =
  let s = Report.to_string sample_crash in
  List.iter
    (fun (what, bad, where) ->
      match Report.of_string bad with
      | Ok _ -> Alcotest.failf "accepted %s" what
      | Error e ->
          check Alcotest.bool (what ^ ": error names " ^ where) true
            (contains ~sub:where e))
    [
      ( "a string count",
        replace_once ~sub:"\"data-loss\": 2" ~by:"\"data-loss\": \"2\"" s,
        "counts/data-loss" );
      ( "a missing member",
        replace_once ~sub:"\"epochs\": 1," ~by:"" s,
        "epochs: missing member" );
      ( "an unknown member",
        replace_once ~sub:"\"epochs\": 1," ~by:"\"epochs\": 1, \"extra\": 0," s,
        "extra: unexpected member" );
      ( "a malformed list element",
        replace_once ~sub:"\"detail\": \"d\"" ~by:"\"detail\": 4" s,
        "violations[0]/detail" );
    ]

(* ------------------------------------------------------------------ *)
(* Differ semantics                                                    *)
(* ------------------------------------------------------------------ *)

let cell row col d =
  Json.Assoc
    [
      ("row", str row);
      ("col", str col);
      ("applicable", Json.Bool true);
      ("fired", int 1);
      ("detection", Json.List [ str "DErrorCode" ]);
      ("recovery", Json.List [ str "RPropagate" ]);
      ("note", str "EIO");
      ("d", str d);
      ("r", str "-");
    ]

let fingerprint cells =
  art
    (doc "fingerprint"
       [
         ("fs", str "ext3");
         ("seed", int 7);
         ("counters", Json.Assoc [ ("experiments_run", int 2) ]);
         ( "matrices",
           Json.List
             [
               Json.Assoc
                 [
                   ("fault", str "Read Failure");
                   ("rows", Json.List [ str "inode" ]);
                   ("cols", Json.List [ str "a"; str "b" ]);
                   ("cells", Json.List cells);
                 ];
             ] );
       ])

let diff_ok g f =
  match Report.diff g f with
  | Ok items -> items
  | Error e -> Alcotest.fail e

let test_matrix_diff_exact () =
  let g = fingerprint [ cell "inode" "a" "-"; cell "inode" "b" "-" ] in
  check Alcotest.int "identical matrices diff empty" 0
    (List.length (diff_ok g g));
  (* One flipped policy cell: exactly one item, naming the cell. *)
  let f = fingerprint [ cell "inode" "a" "-"; cell "inode" "b" "|" ] in
  match diff_ok g f with
  | [ item ] ->
      check Alcotest.string "cell named"
        "fingerprint/ext3/matrices[Read Failure]/cells[inode:b]" item.Report.path
  | items -> Alcotest.failf "expected 1 item, got %d" (List.length items)

let test_matrix_diff_applicability () =
  (* A cell present on one side only is drift, not silence. *)
  let g = fingerprint [ cell "inode" "a" "-"; cell "inode" "b" "-" ] in
  let f = fingerprint [ cell "inode" "a" "-" ] in
  match diff_ok g f with
  | [ item ] ->
      check Alcotest.string "fresh side shows the cell absent" "(absent)"
        item.Report.fresh
  | items -> Alcotest.failf "expected 1 item, got %d" (List.length items)

let test_crash_diff_exact () =
  let g = sample_crash in
  check Alcotest.int "identical crash reports diff empty" 0
    (List.length (diff_ok g g));
  let f = art (crash_doc [ ("data-loss", 3) ]) in
  match diff_ok g f with
  | [ item ] ->
      check Alcotest.string "count named" "crash/ext3/counts/data-loss"
        item.Report.path
  | items -> Alcotest.failf "expected 1 item, got %d" (List.length items)

let forensics_doc ~summary ~txn =
  doc "forensics"
    [
      ("fs", str "ext3");
      ("seed", int 7);
      ("max_states", int 10);
      ( "chains",
        Json.List
          [
            Json.Assoc
              [
                ("state", str "all/rand3");
                ("kind", str "data-loss");
                ("detail", str "/durable1: open ENOENT");
                ("probes", int 4);
                ("summary", str summary);
                ( "culprits",
                  Json.List
                    [
                      Json.Assoc
                        [
                          ("block", int 6);
                          ("label", str "j-data");
                          ("role", str "payload");
                          ("txn", int txn);
                          ("policy", str "ordered");
                          ("epoch", int 0);
                          ("op", int 2);
                          ("op_label", str "fsync /racing0");
                          ("rule", str "");
                          ("first_seq", int 5);
                          ("dropped", int 1);
                          ("torn", Json.Bool false);
                        ];
                    ] );
              ];
          ] );
      ( "log",
        Json.List
          [
            Json.Assoc
              [
                ("seq", int 0);
                ("block", int 144);
                ("epoch", int 0);
                ("label", str "?");
                ("txn", int 5);
                ("policy", str "ordered");
                ("role", str "data");
                ("op", int 1);
                ("op_label", str "write /racing0");
                ("rule", str "");
              ];
          ] );
    ]

let summary = "commit record of txn 5 persisted without its payload (epoch 0)"

let test_forensics_diff_exact () =
  let g = art (forensics_doc ~summary ~txn:5) in
  check Alcotest.int "identical forensics reports diff empty" 0
    (List.length (diff_ok g g));
  (match diff_ok g (art (forensics_doc ~summary:"something else" ~txn:5)) with
  | [ item ] ->
      check Alcotest.string "summary drift named"
        "forensics/ext3/chains[0]/summary" item.Report.path
  | items -> Alcotest.failf "expected 1 item, got %d" (List.length items));
  match diff_ok g (art (forensics_doc ~summary ~txn:6)) with
  | [ item ] ->
      check Alcotest.string "culprit drift named"
        "forensics/ext3/chains[0]/culprits[0]" item.Report.path;
      check Alcotest.bool "culprit rendering shows the txn" true
        (contains ~sub:"\"txn\":6" item.Report.fresh)
  | items -> Alcotest.failf "expected 1 item, got %d" (List.length items)

let test_metrics_diff_exact () =
  let m counters = art (Report.to_json (Report.of_metrics ~name:"ext3" ~seed:7 counters)) in
  let g = m [ ("disk.read", 100); ("jrnl.commit", 8) ] in
  check Alcotest.int "identical metric sets diff empty" 0
    (List.length (diff_ok g g));
  match diff_ok g (m [ ("disk.read", 100); ("jrnl.commit", 9) ]) with
  | [ item ] ->
      check Alcotest.string "metric drift named (exact, no tolerance)"
        "metrics/ext3/metrics/jrnl.commit" item.Report.path
  | items -> Alcotest.failf "expected 1 item, got %d" (List.length items)

let bench metrics = Report.of_bench [ ("smoke", 100, 0, 1, metrics) ]

let test_bench_diff_tolerance () =
  (* Timing metrics drift within the tolerance without tripping. *)
  let g = bench [ ("bench.x.us_per_cycle", 100) ] in
  let f = bench [ ("bench.x.us_per_cycle", 140) ] in
  check Alcotest.int "within default ±50%" 0 (List.length (diff_ok g f));
  let f = bench [ ("bench.x.us_per_cycle", 160) ] in
  check Alcotest.int "outside default ±50%" 1 (List.length (diff_ok g f));
  (match Report.diff ~timing_tol:1.0 g f with
  | Ok items -> check Alcotest.int "wider tolerance absorbs it" 0 (List.length items)
  | Error e -> Alcotest.fail e);
  (* Count metrics stay exact regardless of tolerance. *)
  let g = bench [ ("bench.crash_states.ext3.violations", 100) ] in
  let f = bench [ ("bench.crash_states.ext3.violations", 101) ] in
  match Report.diff ~timing_tol:10.0 g f with
  | Ok items -> check Alcotest.int "exact metric trips at ±1" 1 (List.length items)
  | Error e -> Alcotest.fail e

let test_thresholds () =
  let th =
    art
      (doc "bench-thresholds"
         [
           ( "rules",
             Json.List
               [
                 Json.Assoc [ ("metric", str "m.bytes"); ("max", int 64) ];
                 Json.Assoc [ ("metric", str "m.cow"); ("le_metric", str "m.flat") ];
               ] );
         ])
  in
  let violations m = List.length (diff_ok th (bench m)) in
  check Alcotest.int "all hold" 0
    (violations [ ("m.bytes", 5); ("m.cow", 3); ("m.flat", 700) ]);
  check Alcotest.int "max violated" 1
    (violations [ ("m.bytes", 65); ("m.cow", 3); ("m.flat", 700) ]);
  check Alcotest.int "le_metric violated" 1
    (violations [ ("m.bytes", 5); ("m.cow", 800); ("m.flat", 700) ]);
  (* A metric the run stopped measuring is a violation, not a pass. *)
  check Alcotest.int "missing metric is a violation" 1
    (violations [ ("m.cow", 3); ("m.flat", 700) ])

let test_kind_mismatch_is_error () =
  match Report.diff sample_crash (bench []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "crash vs bench should not be comparable"

(* ------------------------------------------------------------------ *)
(* End to end: a real campaign's artifact                              *)
(* ------------------------------------------------------------------ *)

let small_campaign () =
  (* One fault kind over the full block-type/workload grid is plenty:
     the artifact still carries hundreds of cells but runs in tens of
     milliseconds. *)
  Driver.fingerprint
    ~faults:[ Iron_core.Taxonomy.Read_failure ]
    ~seed:1234 Iron_ext3.Ext3.std

let test_campaign_round_trip () =
  let a = Report.of_fingerprint ~seed:1234 (small_campaign ()) in
  match Report.of_string (Report.to_string a) with
  | Ok a' ->
      check Alcotest.bool "campaign artifact round-trips" true (json a = json a');
      check Alcotest.int "round-trip diffs empty" 0
        (List.length (diff_ok a a'))
  | Error e -> Alcotest.fail e

let test_fuzz_round_trip () =
  (* End to end for the fuzz kind: a real (tiny, seq-1) campaign's
     artifact survives the codec unchanged and diffs empty. *)
  let a = Report.of_fuzz (Iron_fuzz.Fuzz.campaign ~seq:1 Iron_ext3.Ext3.std) in
  check Alcotest.string "filename is brand-keyed" "fuzz-ext3.json"
    (Report.filename a);
  match Report.of_string (Report.to_string a) with
  | Ok a' ->
      check Alcotest.bool "fuzz artifact round-trips" true (json a = json a');
      check Alcotest.int "round-trip diffs empty" 0
        (List.length (diff_ok a a'))
  | Error e -> Alcotest.fail e

let member k j = match Json.member k j with Ok v -> v | Error e -> Alcotest.fail e
let elems = function Json.List l -> l | _ -> Alcotest.fail "expected an array"

let test_campaign_single_cell_perturbation () =
  (* The acceptance property of the whole subsystem: flip ONE policy
     cell in a real fingerprint and the diff must fail, naming it. *)
  let a = Report.of_fingerprint ~seed:1234 (small_campaign ()) in
  let matrices = elems (member "matrices" (json a)) in
  (* Deterministically pick a fired cell to flip (seeded choice). *)
  let fired_cells =
    List.concat_map
      (fun m ->
        List.filter (fun c -> member "fired" c <> int 0) (elems (member "cells" m)))
      matrices
  in
  check Alcotest.bool "campaign has fired cells" true (fired_cells <> []);
  let rng = Iron_util.Prng.create 42 in
  let victim =
    List.nth fired_cells (Iron_util.Prng.int rng (List.length fired_cells))
  in
  (* Rebuild the tree top-down, flipping the victim cell. *)
  let rec flip j =
    match j with
    | Json.Assoc fs when j == victim ->
        Json.Assoc
          (List.map
             (function
               | "d", _ -> ("d", str "X")
               | "detection", _ -> ("detection", Json.List [ str "DSanity" ])
               | kv -> kv)
             fs)
    | Json.Assoc fs -> Json.Assoc (List.map (fun (k, v) -> (k, flip v)) fs)
    | Json.List l -> Json.List (List.map flip l)
    | leaf -> leaf
  in
  let perturbed = flip (json a) in
  let name k = match member k victim with Json.String s -> s | _ -> "?" in
  match diff_ok a (art perturbed) with
  | [ item ] ->
      let expect =
        Printf.sprintf "fingerprint/ext3/matrices[Read Failure]/cells[%s:%s]"
          (name "row") (name "col")
      in
      check Alcotest.string "perturbed cell is named" expect item.Report.path
  | items ->
      Alcotest.failf "expected exactly 1 differing cell, got %d"
        (List.length items)

(* `iron diff GOLDEN FRESH` over directories: a golden artifact the
   fresh run no longer produces is drift; a golden bench-thresholds
   artifact, which only bench --check evaluates, is not. *)
let test_cli_golden_only () =
  let exe = in_repo "bin/iron.exe" in
  let dirs = ref [] in
  let dir files =
    let d = Filename.temp_dir "iron-golden" "" in
    dirs := d :: !dirs;
    List.iter (fun a -> Report.save (Filename.concat d (Report.filename a)) a) files;
    d
  in
  let thresholds =
    art
      (doc "bench-thresholds"
         [ ("rules", Json.List [ Json.Assoc [ ("metric", str "m"); ("max", int 1) ] ]) ])
  in
  let out = Filename.temp_file "iron-diff" ".txt" in
  let run g f =
    Sys.command
      (Printf.sprintf "%s diff %s %s > %s 2>&1" (Filename.quote exe) (Filename.quote g)
         (Filename.quote f) (Filename.quote out))
  in
  let fresh = dir [ sample_crash ] in
  check Alcotest.int "golden-only artifact fails the gate" 1
    (run (dir [ sample_crash; bench [] ]) fresh);
  check Alcotest.bool "and is named" true
    (contains ~sub:"DIFF bench.json (1 cell)" (read_file out));
  check Alcotest.int "golden-only thresholds do not" 0
    (run (dir [ sample_crash; thresholds ]) fresh);
  List.iter
    (fun d ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d)
    !dirs;
  Sys.remove out

let suites =
  [
    ( "report.json",
      [
        Alcotest.test_case "escape round-trip" `Quick test_json_escapes;
        Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        Alcotest.test_case "int vs float" `Quick test_json_int_vs_float;
      ] );
    ( "report.codec",
      [
        qtest prop_round_trip;
        qtest prop_canonical;
        Alcotest.test_case "rejects unknown schema version" `Quick
          test_rejects_unknown_version;
        Alcotest.test_case "rejects unknown kind" `Quick
          test_rejects_unknown_kind;
        Alcotest.test_case "rejects malformed members" `Quick
          test_rejects_bad_member;
        Alcotest.test_case "committed artifacts re-encode to their bytes" `Quick
          test_committed_round_trip;
      ] );
    ( "report.diff",
      [
        Alcotest.test_case "matrices compare exactly" `Quick
          test_matrix_diff_exact;
        Alcotest.test_case "applicability changes are drift" `Quick
          test_matrix_diff_applicability;
        Alcotest.test_case "crash counts compare exactly" `Quick
          test_crash_diff_exact;
        Alcotest.test_case "forensics chains compare exactly" `Quick
          test_forensics_diff_exact;
        Alcotest.test_case "metric sets compare exactly" `Quick
          test_metrics_diff_exact;
        Alcotest.test_case "timing metrics use tolerance" `Quick
          test_bench_diff_tolerance;
        Alcotest.test_case "threshold rules" `Quick test_thresholds;
        Alcotest.test_case "kind mismatch is an error" `Quick
          test_kind_mismatch_is_error;
        qtest prop_single_leaf;
      ] );
    ( "report.campaign",
      [
        Alcotest.test_case "real artifact round-trips" `Quick
          test_campaign_round_trip;
        Alcotest.test_case "real fuzz artifact round-trips" `Quick
          test_fuzz_round_trip;
        Alcotest.test_case "single flipped cell fails the gate" `Quick
          test_campaign_single_cell_perturbation;
        Alcotest.test_case "golden-only artifact fails iron diff" `Quick
          test_cli_golden_only;
      ] );
  ]
