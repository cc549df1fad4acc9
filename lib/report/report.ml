module Driver = Iron_core.Driver
module Render = Iron_core.Render
module Taxonomy = Iron_core.Taxonomy
module Explore = Iron_crash.Explore
module Fuzz = Iron_fuzz.Fuzz
module Traffic = Iron_traffic.Traffic

let schema_version = 1

type t = Json.t

(* ------------------------------------------------------------------ *)
(* The kind table                                                      *)
(* ------------------------------------------------------------------ *)

type shape =
  | Int
  | Str
  | Bool
  | Counts
  | Obj of (string * shape) list
  | Opt of shape
  | Arr of shape
  | Keyed of string list * shape
  | Cell of shape

type kind = {
  name : string;
  label : string option;
  members : (string * shape) list;
  tolerant : string -> bool;
}

let default_timing_tol = 0.5

(* Bench metrics compared exactly: state/violation/Tc counts, forensics
   chain/culprit/probe counts, job counts, and the traffic simulator's
   simulated-time metrics. Everything else in a bench record
   (wall-clock, per-cycle microseconds, allocation bytes, speedups,
   worker counts) is timing-class and compared under tolerance. *)
let is_exact_metric name =
  name = "jobs"
  || List.exists
       (fun suffix -> String.ends_with ~suffix name)
       [
         ".states"; ".violations"; ".tc_detected"; ".chains"; ".culprits";
         ".probes"; ".workloads"; ".log_writes"; ".ops"; ".ops_per_sim_sec";
         ".p50_us"; ".p99_us"; ".cross_tenant"; ".blocks_touched";
         ".chunks_touched";
       ]

let never _ = false
let str_list = Arr Str
let violation = Obj [ ("state", Str); ("kind", Str); ("detail", Str) ]

let kinds =
  [
    {
      name = "fingerprint";
      label = Some "fs";
      tolerant = never;
      members =
        [
          ("fs", Str);
          ("seed", Int);
          ("counters", Counts);
          ( "matrices",
            Keyed
              ( [ "fault" ],
                Obj
                  [
                    ("fault", Str);
                    ("rows", str_list);
                    ("cols", str_list);
                    ( "cells",
                      Keyed
                        ( [ "row"; "col" ],
                          Cell
                            (Obj
                               [
                                 ("row", Str);
                                 ("col", Str);
                                 ("applicable", Bool);
                                 ("fired", Int);
                                 ("detection", str_list);
                                 ("recovery", str_list);
                                 ("note", Str);
                                 ("d", Str);
                                 ("r", Str);
                               ]) ) );
                  ] ) );
        ];
    };
    {
      name = "crash";
      label = Some "fs";
      tolerant = never;
      members =
        [
          ("fs", Str);
          ("seed", Int);
          ("max_states", Int);
          ("log_len", Int);
          ("epochs", Int);
          ("states", Int);
          ("tc_detected", Int);
          ("counts", Counts);
          ("violations", Arr (Cell violation));
        ];
    };
    {
      name = "forensics";
      label = Some "fs";
      tolerant = never;
      members =
        [
          ("fs", Str);
          ("seed", Int);
          ("max_states", Int);
          ( "chains",
            Arr
              (Obj
                 [
                   ("state", Str);
                   ("kind", Str);
                   ("detail", Str);
                   ("probes", Int);
                   ("summary", Str);
                   ( "culprits",
                     Arr
                       (Cell
                          (Obj
                             [
                               ("block", Int);
                               ("label", Str);
                               ("role", Str);
                               ("txn", Int);
                               ("policy", Str);
                               ("epoch", Int);
                               ("op", Int);
                               ("op_label", Str);
                               ("rule", Str);
                               ("first_seq", Int);
                               ("dropped", Int);
                               ("torn", Bool);
                             ])) );
                 ]) );
          ( "log",
            Arr
              (Cell
                 (Obj
                    [
                      ("seq", Int);
                      ("block", Int);
                      ("epoch", Int);
                      ("label", Str);
                      ("txn", Int);
                      ("policy", Str);
                      ("role", Str);
                      ("op", Int);
                      ("op_label", Str);
                      ("rule", Str);
                    ])) );
        ];
    };
    {
      name = "metrics";
      label = Some "name";
      tolerant = never;
      members = [ ("name", Str); ("seed", Int); ("metrics", Counts) ];
    };
    {
      name = "bench";
      label = None;
      tolerant = (fun k -> not (is_exact_metric k));
      members =
        [
          ( "records",
            Arr
              (Obj
                 [
                   ("experiment", Str);
                   ("wall_ms", Int);
                   ("jobs", Int);
                   ("workers", Int);
                   ("metrics", Counts);
                 ]) );
        ];
    };
    {
      name = "bench-thresholds";
      label = None;
      tolerant = never;
      members =
        [
          ( "rules",
            Arr
              (Obj
                 [
                   ("metric", Str);
                   ("max", Opt Int);
                   ("min", Opt Int);
                   ("le_metric", Opt Str);
                 ]) );
        ];
    };
    {
      name = "fuzz";
      label = Some "fs";
      tolerant = never;
      members =
        [
          ("fs", Str);
          ("seq", Int);
          ("seed", Int);
          ("cap", Int);
          ("workloads", Int);
          ("log_writes", Int);
          ("states_raw", Int);
          ("states", Int);
          ("violations", Int);
          ("tc_detected", Int);
          ("counts", Counts);
          ("corpus", Str);
          ( "cases",
            Arr
              (Cell
                 (Obj
                    [
                      ("index", Int);
                      ("workload", Str);
                      ("minimized", Str);
                      ("checked", Int);
                      ("violations", Int);
                      ("first", Arr violation);
                    ])) );
        ];
    };
    {
      name = "traffic";
      label = Some "fs";
      tolerant = never;
      members =
        [
          ("fs", Str);
          ("clients", Int);
          ("tenants", Int);
          ("seed", Int);
          ("zipf_milli", Int);
          ("arrival", Str);
          ("duration_ms", Int);
          ("num_blocks", Int);
          ("ops", Int);
          ("errors", Int);
          ("ops_per_sim_sec", Int);
          ("p50_us", Int);
          ("p99_us", Int);
          ("op_counts", Counts);
          ("chunks_touched", Int);
          ("blocks_touched", Int);
          ("states", Int);
          ("tc_detected", Int);
          ("violations", Int);
          ("cross_tenant", Int);
          ("mount_violations", Int);
          ( "per_tenant",
            Arr
              (Cell
                 (Obj
                    [
                      ("tenant", Int);
                      ("ops", Int);
                      ("violations", Int);
                      ("cross", Int);
                    ])) );
        ];
    };
  ]

(* Members of a validated document, which is always an object. *)
let field t k =
  match t with Json.Assoc fields -> List.assoc_opt k fields | _ -> None

let kind_of t =
  match field t "kind" with
  | Some (Json.String name) -> List.find (fun k -> k.name = name) kinds
  | _ -> invalid_arg "Report: not a validated artifact"

let kind_name t = (kind_of t).name

(* The value of the member naming the document, if the kind has one. *)
let label k t =
  match Option.bind k.label (field t) with Some (Json.String v) -> Some v | _ -> None

let filename t =
  let k = kind_of t in
  match label k t with
  | Some v -> Printf.sprintf "%s-%s.json" k.name v
  | None -> k.name ^ ".json"

(* The whole document's shape: the header, then the row's members. *)
let doc_shape k = Obj (("schema_version", Int) :: ("kind", Str) :: k.members)

(* ------------------------------------------------------------------ *)
(* Builders: each emits the canonical tree, members in table order     *)
(* ------------------------------------------------------------------ *)

let doc kind members =
  Json.Assoc
    (("schema_version", Json.Int schema_version)
    :: ("kind", Json.String kind) :: members)

let str s = Json.String s
let int n = Json.Int n
let strs l = Json.List (List.map str l)
let list f l = Json.List (List.map f l)
let counts kvs = Json.Assoc (List.map (fun (k, v) -> (k, Json.Int v)) kvs)

let of_fingerprint ~seed (r : Driver.report) =
  let matrix (m : Driver.matrix) =
    let cell row col =
      let c = m.Driver.cell row col in
      if not c.Driver.applicable then None
      else
        Some
          (Json.Assoc
             [
               ("row", str row);
               ("col", str (String.make 1 col));
               ("applicable", Json.Bool true);
               ("fired", int c.Driver.fired);
               ( "detection",
                 strs (List.map Taxonomy.detection_name c.Driver.detection) );
               ( "recovery",
                 strs (List.map Taxonomy.recovery_name c.Driver.recovery) );
               ("note", str c.Driver.note);
               ("d", str (Render.cell_symbols ~which:`Detection c));
               ("r", str (Render.cell_symbols ~which:`Recovery c));
             ])
    in
    Json.Assoc
      [
        ("fault", str (Taxonomy.fault_kind_name m.Driver.fault));
        ("rows", strs m.Driver.rows);
        ("cols", strs (List.map (String.make 1) m.Driver.cols));
        ( "cells",
          Json.List
            (List.concat_map
               (fun row -> List.filter_map (cell row) m.Driver.cols)
               m.Driver.rows) );
      ]
  in
  doc "fingerprint"
    [
      ("fs", str r.Driver.name);
      ("seed", int seed);
      ("counters", counts (Driver.counters r));
      ("matrices", list matrix r.Driver.matrices);
    ]

let crash_kinds =
  [ Explore.Unmountable; Explore.Data_loss; Explore.Fsck_unclean; Explore.Panic ]

let violation_json (state, kind, detail) =
  Json.Assoc [ ("state", str state); ("kind", str kind); ("detail", str detail) ]

let of_crash ~seed ~max_states (r : Explore.report) =
  doc "crash"
    [
      ("fs", str r.Explore.fs);
      ("seed", int seed);
      ("max_states", int max_states);
      ("log_len", int r.Explore.log_len);
      ("epochs", int r.Explore.rep_epochs);
      ("states", int r.Explore.states);
      ("tc_detected", int r.Explore.tc_detected);
      ( "counts",
        counts
          (List.map
             (fun k -> (Explore.kind_to_string k, Explore.count r k))
             crash_kinds) );
      ( "violations",
        list
          (fun (v : Explore.violation) ->
            violation_json
              (v.Explore.state, Explore.kind_to_string v.Explore.v_kind, v.Explore.detail))
          r.Explore.violations );
    ]

let of_forensics ~seed ~max_states (r : Explore.report) =
  let culprit (c : Explore.culprit) =
    Json.Assoc
      [
        ("block", int c.Explore.cu_block);
        ("label", str c.Explore.cu_label);
        ("role", str c.Explore.cu_role);
        ("txn", int c.Explore.cu_txn);
        ("policy", str c.Explore.cu_policy);
        ("epoch", int c.Explore.cu_epoch);
        ("op", int c.Explore.cu_op);
        ("op_label", str c.Explore.cu_op_label);
        ("rule", str c.Explore.cu_rule);
        ("first_seq", int c.Explore.cu_first_seq);
        ("dropped", int c.Explore.cu_dropped);
        ("torn", Json.Bool c.Explore.cu_torn);
      ]
  in
  let chain (ch : Explore.chain) =
    Json.Assoc
      [
        ("state", str ch.Explore.ch_state);
        ("kind", str (Explore.kind_to_string ch.Explore.ch_kind));
        ("detail", str ch.Explore.ch_detail);
        ("probes", int ch.Explore.ch_probes);
        ("summary", str ch.Explore.ch_summary);
        ("culprits", list culprit ch.Explore.ch_culprits);
      ]
  in
  let logged (l : Explore.logged) =
    Json.Assoc
      [
        ("seq", int l.Explore.lg_seq);
        ("block", int l.Explore.lg_block);
        ("epoch", int l.Explore.lg_epoch);
        ("label", str l.Explore.lg_label);
        ("txn", int l.Explore.lg_txn);
        ("policy", str l.Explore.lg_policy);
        ("role", str l.Explore.lg_role);
        ("op", int l.Explore.lg_op);
        ("op_label", str l.Explore.lg_op_label);
        ("rule", str l.Explore.lg_rule);
      ]
  in
  doc "forensics"
    [
      ("fs", str r.Explore.fs);
      ("seed", int seed);
      ("max_states", int max_states);
      ("chains", list chain r.Explore.chains);
      ("log", list logged r.Explore.log);
    ]

let of_metrics ~name ~seed metrics =
  doc "metrics" [ ("name", str name); ("seed", int seed); ("metrics", counts metrics) ]

(* Counters verbatim; gauges truncated (they are whole numbers in the
   deterministic registries, e.g. queue depths); histograms as their
   count and truncated sum — all integers, so the artifact compares
   exactly. *)
let metrics_of_snapshot snap =
  List.concat_map
    (fun (path, v) ->
      match v with
      | Iron_obs.Obs.Counter n -> [ (path, n) ]
      | Iron_obs.Obs.Gauge g -> [ (path, int_of_float g) ]
      | Iron_obs.Obs.Histogram h ->
          [
            (path ^ ".count", h.Iron_obs.Obs.count);
            (path ^ ".sum", int_of_float h.Iron_obs.Obs.sum);
          ])
    snap

let of_bench records =
  doc "bench"
    [
      ( "records",
        list
          (fun (experiment, wall_ms, jobs, workers, metrics) ->
            Json.Assoc
              [
                ("experiment", str experiment);
                ("wall_ms", int wall_ms);
                ("jobs", int jobs);
                ("workers", int workers);
                ("metrics", counts metrics);
              ])
          records );
    ]

(* The fuzz artifact keeps the campaign's deterministic identity: the
   corpus digest pins every crash state checked, the cases pin every
   violating workload with its minimized form. Chains stay out — the
   goldens are regenerated without [--explain]. *)
let of_fuzz (r : Fuzz.report) =
  let case (c : Fuzz.case) =
    Json.Assoc
      [
        ("index", int c.Fuzz.cs_index);
        ("workload", str c.Fuzz.cs_workload);
        ("minimized", str c.Fuzz.cs_minimized);
        ("checked", int c.Fuzz.cs_checked);
        ("violations", int c.Fuzz.cs_violations);
        ("first", list violation_json c.Fuzz.cs_first);
      ]
  in
  doc "fuzz"
    [
      ("fs", str r.Fuzz.fz_fs);
      ("seq", int r.Fuzz.fz_seq);
      ("seed", int r.Fuzz.fz_seed);
      ("cap", int r.Fuzz.fz_cap);
      ("workloads", int r.Fuzz.fz_workloads);
      ("log_writes", int r.Fuzz.fz_log_writes);
      ("states_raw", int r.Fuzz.fz_states_raw);
      ("states", int r.Fuzz.fz_states);
      ("violations", int r.Fuzz.fz_violations);
      ("tc_detected", int r.Fuzz.fz_tc);
      ("counts", counts r.Fuzz.fz_kinds);
      ("corpus", str r.Fuzz.fz_corpus);
      ("cases", list case r.Fuzz.fz_cases);
    ]

(* The traffic artifact is all-integer by the simulator's design
   (quantized skew, bucket-bound latencies, simulated time), so it
   compares exactly like the other deterministic kinds. *)
let of_traffic (r : Traffic.report) =
  let tenant (ts : Traffic.tenant_stat) =
    Json.Assoc
      [
        ("tenant", int ts.Traffic.ts_tenant);
        ("ops", int ts.Traffic.ts_ops);
        ("violations", int ts.Traffic.ts_viol);
        ("cross", int ts.Traffic.ts_cross);
      ]
  in
  doc "traffic"
    [
      ("fs", str r.Traffic.r_fs);
      ("clients", int r.Traffic.r_clients);
      ("tenants", int r.Traffic.r_tenants);
      ("seed", int r.Traffic.r_seed);
      ("zipf_milli", int r.Traffic.r_zipf_milli);
      ("arrival", str r.Traffic.r_arrival);
      ("duration_ms", int r.Traffic.r_duration_ms);
      ("num_blocks", int r.Traffic.r_num_blocks);
      ("ops", int r.Traffic.r_ops);
      ("errors", int r.Traffic.r_errors);
      ("ops_per_sim_sec", int r.Traffic.r_ops_per_sim_sec);
      ("p50_us", int r.Traffic.r_p50_us);
      ("p99_us", int r.Traffic.r_p99_us);
      ("op_counts", counts r.Traffic.r_op_counts);
      ("chunks_touched", int r.Traffic.r_chunks_touched);
      ("blocks_touched", int r.Traffic.r_blocks_touched);
      ("states", int r.Traffic.r_states);
      ("tc_detected", int r.Traffic.r_tc);
      ("violations", int r.Traffic.r_viol);
      ("cross_tenant", int r.Traffic.r_cross);
      ("mount_violations", int r.Traffic.r_mount_viol);
      ("per_tenant", list tenant r.Traffic.r_tenant);
    ]

(* ------------------------------------------------------------------ *)
(* Shape check                                                         *)
(* ------------------------------------------------------------------ *)

(* A keyed element's identity: its key members' values joined by ':'
   (["inode:b"] for a fingerprint cell). *)
let key_of keys v =
  String.concat ":"
    (List.map
       (fun k ->
         match field v k with
         | Some (Json.String s) -> s
         | Some x -> Json.to_string ~indent:false x
         | None -> "")
       keys)

(* [Invalid (path, message)]; the path grows as the exception unwinds. *)
exception Invalid of string * string

let rec shape_name = function
  | Int -> "int"
  | Str -> "string"
  | Bool -> "bool"
  | Counts | Obj _ -> "object"
  | Arr _ | Keyed _ -> "array"
  | Opt s | Cell s -> shape_name s

(* Prefix the path of an error raised below one step of the walk. *)
let at step = function
  | Invalid (p, m) -> Invalid (step () ^ p, m)
  | e -> e

let rec check shape (v : Json.t) =
  match (shape, v) with
  | Int, Json.Int _ | Str, Json.String _ | Bool, Json.Bool _ -> ()
  | (Opt s | Cell s), _ -> check s v
  | Counts, Json.Assoc fields -> List.iter (fun (k, v) -> member k Int v) fields
  | Obj members, Json.Assoc fields -> check_obj members fields
  | Arr s, Json.List items ->
      List.iteri
        (fun i v ->
          try check s v with e -> raise (at (fun () -> Printf.sprintf "[%d]" i) e))
        items
  | Keyed (keys, s), Json.List items ->
      let seen = Hashtbl.create (List.length items) in
      List.iter
        (fun v ->
          let key = key_of keys v in
          try
            check s v;
            if Hashtbl.mem seen key then raise (Invalid ("", "duplicate key"));
            Hashtbl.add seen key ()
          with e -> raise (at (fun () -> "[" ^ key ^ "]") e))
        items
  | _ ->
      raise
        (Invalid
           ("", Printf.sprintf "expected %s, got %s" (shape_name shape) (Json.type_name v)))

and member k s v = try check s v with e -> raise (at (fun () -> "/" ^ k) e)

(* Canonical member order is checked in one pass; any other order falls
   back to lookups. *)
and check_obj members fields =
  let rec in_order ms fs =
    match (ms, fs) with
    | [], [] -> true
    | (k, s) :: ms', (k', v) :: fs' when String.equal k k' ->
        member k s v;
        in_order ms' fs'
    | (_, Opt _) :: ms', _ -> in_order ms' fs
    | _ -> false
  in
  if not (in_order members fields) then begin
    List.iter
      (fun (k, v) ->
        match List.assoc_opt k members with
        | None -> raise (Invalid ("/" ^ k, "unexpected member"))
        | Some s -> member k s v)
      fields;
    List.iter
      (fun (k, s) ->
        match s with
        | Opt _ -> ()
        | _ ->
            if not (List.mem_assoc k fields) then
              raise (Invalid ("/" ^ k, "missing member")))
      members
  end

let of_json (j : Json.t) =
  match field j "schema_version" with
  | Some (Json.Int v) when v <> schema_version ->
      Error
        (Printf.sprintf "unknown schema version %d (this build supports %d)" v
           schema_version)
  | Some (Json.Int _) -> (
      match field j "kind" with
      | Some (Json.String name) -> (
          match List.find_opt (fun k -> k.name = name) kinds with
          | None -> Error (Printf.sprintf "unknown artifact kind %S" name)
          | Some k -> (
              match check (doc_shape k) j with
              | () -> Ok j
              | exception Invalid (p, m) ->
                  Error (Printf.sprintf "%s%s: %s" name p m)))
      | _ -> Error "missing string member \"kind\"")
  | _ -> Error "missing int member \"schema_version\""

let to_json t = t

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let to_string t = Json.to_string t ^ "\n"
let of_string s = Result.bind (Json.of_string s) of_json

let save path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> Result.map_error (fun e -> path ^ ": " ^ e) (of_string s)

(* ------------------------------------------------------------------ *)
(* Diffing                                                             *)
(* ------------------------------------------------------------------ *)

type item = { path : string; golden : string; fresh : string }

(* Lists compared by index report at most this many differing elements. *)
let noise_cap = 20

let render = function
  | None -> "(absent)"
  | Some v -> Json.to_string ~indent:false v

let within_tol tol golden fresh =
  let g = float_of_int golden and f = float_of_int fresh in
  Float.abs (f -. g) <= tol *. Float.max (Float.abs g) 1.0

(* One structural walk of both trees along the kind's shape. [key] is
   the member name a value sits under, which is what the tolerance
   predicate reads. *)
let diff_tree ~tolerant ~timing_tol root shape golden fresh =
  let items = ref [] in
  let push path g f = items := { path; golden = render g; fresh = render f } :: !items in
  let rec node path key shape g f =
    if g <> f then
      match (shape, g, f) with
      | Opt s, _, _ -> node path key s g f
      | Obj members, Json.Assoc gs, Json.Assoc fs ->
          fields path (fun k -> Option.value ~default:Str (List.assoc_opt k members)) gs fs
      | Counts, Json.Assoc gs, Json.Assoc fs -> fields path (fun _ -> Int) gs fs
      | Arr s, Json.List gl, Json.List fl -> by_index path key s gl fl
      | Keyed (keys, s), Json.List gl, Json.List fl -> by_key path key keys s gl fl
      | Int, Json.Int a, Json.Int b when tolerant key && within_tol timing_tol a b -> ()
      | _ -> push path (Some g) (Some f)
  and fields path shape_of gs fs =
    List.iter
      (fun (k, g) ->
        let p = path ^ "/" ^ k in
        match List.assoc_opt k fs with
        | Some f -> node p k (shape_of k) g f
        | None -> push p (Some g) None)
      gs;
    List.iter
      (fun (k, f) -> if not (List.mem_assoc k gs) then push (path ^ "/" ^ k) None (Some f))
      fs
  and by_index path key s gl fl =
    let ga = Array.of_list gl and fa = Array.of_list fl in
    let at a i = if i < Array.length a then Some a.(i) else None in
    let shown = ref 0 in
    for i = 0 to max (Array.length ga) (Array.length fa) - 1 do
      let g = at ga i and f = at fa i in
      if g <> f && !shown < noise_cap then begin
        incr shown;
        let p = Printf.sprintf "%s[%d]" path i in
        match (g, f) with Some g, Some f -> node p key s g f | _ -> push p g f
      end
    done
  and by_key path key keys s gl fl =
    let index l =
      let h = Hashtbl.create (List.length l) in
      List.iter (fun v -> Hashtbl.replace h (key_of keys v) v) l;
      h
    in
    let gh = index gl and fh = index fl in
    let p k = path ^ "[" ^ k ^ "]" in
    List.iter
      (fun g ->
        let k = key_of keys g in
        match Hashtbl.find_opt fh k with
        | Some f -> node (p k) key s g f
        | None -> push (p k) (Some g) None)
      gl;
    List.iter
      (fun f ->
        let k = key_of keys f in
        if not (Hashtbl.mem gh k) then push (p k) None (Some f))
      fl
  in
  node root "" shape golden fresh;
  List.rev !items

(* Thresholds against a bench run: every rule is evaluated against the
   union of the records' metrics (later records win on duplicate
   paths). A missing metric is a violation: a threshold that silently
   stops measuring anything is a broken gate. *)
let check_rules thresholds bench =
  let elements t k = match field t k with Some (Json.List l) -> l | _ -> [] in
  let merged =
    List.fold_left
      (fun acc r ->
        match field r "metrics" with
        | Some (Json.Assoc kvs) -> List.rev_append kvs acc
        | _ -> acc)
      [] (elements bench "records")
  in
  let lookup k =
    match List.assoc_opt k merged with Some (Json.Int v) -> Some v | _ -> None
  in
  List.concat_map
    (fun rule ->
      let int k = match field rule k with Some (Json.Int v) -> Some v | _ -> None in
      let metric = match field rule "metric" with Some (Json.String s) -> s | _ -> "" in
      let le_metric =
        match field rule "le_metric" with Some (Json.String s) -> Some s | _ -> None
      in
      let item golden fresh = { path = "thresholds/" ^ metric; golden; fresh } in
      match (int "max", int "min", le_metric, lookup metric) with
      | None, None, None, _ -> [ item "a max, min or le_metric bound" "rule has no bound" ]
      | _, _, _, None -> [ item "metric measured" "metric absent from bench run" ]
      | max, min, le_metric, Some v ->
          List.concat
            [
              (match max with
              | Some max when v > max -> [ item (Printf.sprintf "<= %d" max) (string_of_int v) ]
              | _ -> []);
              (match min with
              | Some min when v < min -> [ item (Printf.sprintf ">= %d" min) (string_of_int v) ]
              | _ -> []);
              (match le_metric with
              | None -> []
              | Some other -> (
                  match lookup other with
                  | None ->
                      [ item (Printf.sprintf "<= %s" other) (other ^ " absent from bench run") ]
                  | Some ov when v > ov ->
                      [ item (Printf.sprintf "<= %s = %d" other ov) (string_of_int v) ]
                  | Some _ -> []));
            ])
    (elements thresholds "rules")

let diff ?(timing_tol = default_timing_tol) golden fresh =
  let g = kind_of golden and f = kind_of fresh in
  if g.name = "bench-thresholds" && f.name = "bench" then Ok (check_rules golden fresh)
  else if g != f then
    Error
      (Printf.sprintf "cannot diff a %s artifact against a %s artifact" g.name f.name)
  else
    let root =
      match label g golden with Some v -> g.name ^ "/" ^ v | None -> g.name
    in
    Ok (diff_tree ~tolerant:g.tolerant ~timing_tol root (doc_shape g) golden fresh)

let pp_item fmt i =
  Format.fprintf fmt "%s@.  golden: %s@.  fresh:  %s" i.path i.golden i.fresh

let pp_items fmt items =
  List.iteri
    (fun i it ->
      if i > 0 then Format.fprintf fmt "@.";
      Format.fprintf fmt "%a@." pp_item it)
    items
