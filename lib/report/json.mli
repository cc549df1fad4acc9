(** A minimal, dependency-free JSON value with a canonical encoder and
    a strict parser — just enough for the versioned artifact schema in
    {!Report}.

    The encoder is {e canonical}: a given value always renders to the
    same bytes (object fields in construction order, fixed number
    formatting, fixed escaping), so equal artifacts are byte-equal on
    disk and `git diff` on a golden file is meaningful. The parser
    accepts standard JSON (insignificant whitespace, [\uXXXX] escapes)
    and round-trips everything the encoder emits. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Canonical rendering. With [~indent:true] (default) objects and
    arrays are broken over lines with two-space indentation — golden
    artifacts are committed, so they should diff line-by-line. *)

val of_string : string -> (t, string) result
(** Strict parse of one JSON document ([Error] carries a byte offset
    and message). Trailing whitespace is allowed, trailing garbage is
    not. Numbers without [.], [e] or [E] parse as [Int]. A [\u] escape
    takes exactly four hex digits and surrogates must pair up (high
    then low); an object may not repeat a key. *)

(** {2 Accessors} *)

val type_name : t -> string
(** ["null"], ["bool"], ["int"], ["float"], ["string"], ["array"] or
    ["object"], for error messages. *)

val member : string -> t -> (t, string) result
val mem_str : string -> t -> (string, string) result

val escape_string : string -> string
(** The encoder's string escaping (including the surrounding quotes),
    exposed for one-line hand-rendered JSON elsewhere. *)
