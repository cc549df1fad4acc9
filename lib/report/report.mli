(** Versioned golden artifacts and the regression differ.

    The paper's whole method is {e diffing observable outputs} of
    faulty vs fault-free runs (§4.3); this module applies the same
    discipline to the reproduction itself. Every experiment output we
    gate on — the Figure-2/3 failure-policy matrices, the §6.1
    crash-exploration reports, forensics chains, metric sets, bench
    records and thresholds, fuzzing and traffic campaigns — is a
    canonical JSON document carrying a schema version and a [kind].

    An artifact {e is} its JSON tree: the builders below emit the
    canonical tree directly, the loader checks its shape against the
    {!kinds} table, and one structural differ compares two trees along
    that shape. A row of the table names the kind, the member that
    names its file, the expected members with their JSON types, and the
    diff rules:

    - lists are compared by index (at most 20 differing elements are
      reported per list) unless {!Keyed}, in which case elements are
      matched by their key members (fingerprint [matrices] by [fault],
      [cells] by [row] and [col]);
    - a {!Cell} compares as one unit and is reported whole;
    - integer leaves whose member name satisfies the row's [tolerant]
      predicate (timing-class bench metrics) compare within a relative
      tolerance; every other leaf compares exactly.

    Each diff item's [path] is the JSON path below [<kind>/<name>],
    with keyed elements named by their key
    (["fingerprint/ext3/matrices[Read Failure]/cells[inode:b]"]). A
    differing value renders as compact canonical JSON, a value missing
    on one side as ["(absent)"].

    {b Adding a kind} takes one row in {!kinds} and one [of_*] builder
    emitting the members in the row's order; loading, diffing, file
    naming and the test generators follow from the row.

    Golden artifacts live under [golden/] in the repository;
    [iron golden --update] regenerates them and [iron diff golden/
    FRESH/] is the CI gate. The loader rejects unknown schema versions
    and kinds so a stale golden tree fails loudly, never silently. *)

val schema_version : int
(** Current schema version, [1]. Encoded into every artifact; the
    loader rejects anything else. *)

type t
(** A shape-checked artifact document. *)

(** {1 The kind table} *)

type shape =
  | Int
  | Str
  | Bool
  | Counts  (** an object mapping any member name to an int *)
  | Obj of (string * shape) list
      (** exactly these members (canonically in this order) *)
  | Opt of shape  (** an {!Obj} member that may be absent *)
  | Arr of shape  (** compared by index *)
  | Keyed of string list * shape
      (** compared by the elements' key members, which must be unique *)
  | Cell of shape  (** compared, and reported, as one unit *)

type kind = {
  name : string;  (** the document's [kind] member *)
  label : string option;
      (** the member naming the file: [<name>-<label>.json], or
          [<name>.json] when [None] *)
  members : (string * shape) list;
      (** after [schema_version] and [kind] *)
  tolerant : string -> bool;
      (** member names of int leaves compared within the timing
          tolerance *)
}

val kinds : kind list
(** One row per kind: ["fingerprint"], ["crash"], ["forensics"],
    ["metrics"], ["bench"], ["bench-thresholds"], ["fuzz"],
    ["traffic"]. *)

val kind_name : t -> string
val filename : t -> string

(** {1 Builders} *)

val of_fingerprint : seed:int -> Iron_core.Driver.report -> t
(** Capture the deterministic fraction of a campaign report: matrices
    (applicable cells, with rendered symbols) and the
    {!Iron_core.Driver.counters} — never [stats.wall_s] or
    [stats.workers]. *)

val of_crash : seed:int -> max_states:int -> Iron_crash.Explore.report -> t

val of_forensics : seed:int -> max_states:int -> Iron_crash.Explore.report -> t
(** The causal-forensics side of an [explore ~forensics:true] report:
    the chains and the provenance-tagged write log. The violation
    counts stay in the [crash] artifact — the two kinds gate
    independently. *)

val of_metrics : name:string -> seed:int -> (string * int) list -> t

val metrics_of_snapshot : Iron_obs.Obs.snapshot -> (string * int) list
(** Flatten an observability snapshot to integer metrics for
    {!of_metrics}: counters verbatim, gauges truncated, histograms as
    [<path>.count] / [<path>.sum]. Path order is preserved. *)

val of_bench : (string * int * int * int * (string * int) list) list -> t
(** One record per experiment: [(experiment, wall_ms, jobs, workers,
    metrics)]. *)

val of_fuzz : Iron_fuzz.Fuzz.report -> t
val of_traffic : Iron_traffic.Traffic.report -> t

(** {1 Encoding}

    [to_string] is canonical: equal artifacts are byte-equal, and a
    loaded file re-encodes to its own bytes when it was written by
    [to_string] (member order is kept as loaded). *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parse and shape-check. Rejects documents whose [schema_version]
    differs from {!schema_version}, whose [kind] is unknown, or whose
    members do not match the kind's row (errors name the JSON path). *)

val of_json : Json.t -> (t, string) result
(** Shape-check a tree, as {!of_string} does after parsing. Object
    keys are taken to be unique, which {!Json.of_string} enforces. *)

val to_json : t -> Json.t
val save : string -> t -> unit
val load : string -> (t, string) result

(** {1 Diffing} *)

type item = {
  path : string;
  golden : string;  (** rendered golden-side value *)
  fresh : string;  (** rendered fresh-side value *)
}

val default_timing_tol : float
(** [0.5]: a timing metric may drift ±50% relative to golden before it
    counts as a regression. *)

val diff : ?timing_tol:float -> t -> t -> (item list, string) result
(** [diff golden fresh] is [Ok []] when the artifacts agree, [Ok items]
    with one item per differing cell, and [Error] when the kinds
    differ — except a [bench-thresholds] golden against a [bench]
    fresh, which evaluates each rule ([max], [min], [le_metric]) on
    the union of the records' metrics (later records win). A rule
    whose metric is missing, or that has no bound, is a violation. *)

val pp_item : Format.formatter -> item -> unit

val pp_items : Format.formatter -> item list -> unit
(** Human-readable cell-level report, one [path: golden ... | fresh ...]
    block per item. *)
