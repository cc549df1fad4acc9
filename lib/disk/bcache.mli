(** A simple write-through block cache (the FS-side page cache).

    Reads are served from memory when possible; writes update the cached
    copy {e before} being issued to the device, so a failed device write
    leaves memory new and disk stale — the page-cache behaviour behind
    several of the paper's findings (e.g. ext3 silently ignoring write
    errors, §5.1).

    The cache evicts in exact FIFO order over the resident blocks once
    [capacity] are resident: the victim is the block filled or inserted
    longest ago, and a block invalidated and read again counts as new.
    Rewriting a resident block keeps its place. Since the cache is
    write-through, eviction never loses data. *)

type t

val create : ?capacity:int -> Dev.t -> t
(** Default capacity: 256 blocks. *)

val dev : t -> Dev.t
(** The underlying device, for uncached access. *)

val read : t -> int -> (bytes, Dev.error) result
(** Returns a copy; mutating it does not affect the cache. *)

val peek : t -> int -> (bytes, Dev.error) result
(** Borrowed read: the cache's own buffer, with no copy on a hit and
    only the cache fill on a miss. Hits and misses count exactly as for
    {!read}. The borrow ends at the next operation on this cache (any
    call below, including another [peek]): eviction hands buffers back
    to the block arena, which reuses them for the next fill. The caller
    must not mutate the buffer, and must copy whatever it keeps across
    another cache call. *)

val read_into : t -> int -> bytes -> (unit, Dev.error) result
(** Zero-copy read: fill the caller's buffer from the cache (no
    allocation on a hit) or, on a miss, from the device via its own
    zero-copy path (one cache-buffer allocation). Mutating [buf]
    afterwards does not affect the cache. *)

val checked : t -> int -> bool
(** The owner's verify-once mark on a resident block; [false] for a
    block not resident. The cache never sets it. It clears it on every
    change to the block's entry: a fill, {!write} (even a failed one),
    {!invalidate}, eviction and {!invalidate_all}. So a block that is
    [checked] still holds exactly the bytes it held when it was marked.
    The cache does not know what the mark stands for; its owner clears
    it when that changes (ext3 does on every change to the block's
    stored checksum). *)

val set_checked : t -> int -> bool -> unit
(** Set or clear {!checked} on a resident block; a no-op on a block
    that is not resident. Mark a block only for bytes read from this
    cache with no read or write of that same block since: if other
    calls evicted it meanwhile, it is not resident and the mark is
    dropped. *)

val write : t -> int -> bytes -> (unit, Dev.error) result
val sync : t -> (unit, Dev.error) result
val invalidate : t -> int -> unit
val invalidate_all : t -> unit

val hits : t -> int
val misses : t -> int
