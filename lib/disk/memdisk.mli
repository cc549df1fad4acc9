(** The simulated disk: one chunked copy-on-write image under a
    service-time model.

    Every volume — the 8 MiB fingerprinting disk, the crash explorer's
    scratch device, the 1 GiB traffic volume — is this one device. Its
    state is an immutable, structurally shared {e image} plus a dense
    overlay of privately owned dirty blocks:

    - an image is an array of 512-block {e chunks}, [None] until a
      block inside the chunk is first frozen; a materialized chunk's
      untouched slots alias one shared zero block. A blank 1 GiB image
      is a few hundred [None]s;
    - the overlay holds, per chunk, an array of heap buffers created
      when the chunk is first dirtied, plus an insertion-ordered dirty
      list. Ordered walks run off that list, so nothing observable
      depends on where a buffer lives;
    - a write of all zeroes to a clean block that still aliases the
      zero block is charged and counted like any write but
      materializes nothing, so mkfs's zero-the-volume pass costs no
      memory.

    {!snapshot} is a freeze (dirty buffers are adopted, no block is
    copied) and {!restore} drops the overlay: both O(dirty). Frozen
    images are never written in place, so one image may seed any
    number of devices across any number of domains. Timing and
    statistics live in {!Model}. *)

type params = Model.params = {
  block_size : int;  (** bytes per block (default 4096) *)
  num_blocks : int;  (** default 2048 (an 8 MiB volume) *)
  seek_min_ms : float;  (** track-to-track seek (default 0.8) *)
  seek_span_ms : float;  (** extra for a full-stroke seek (default 7.2) *)
  rotation_ms : float;  (** full revolution, 7200 RPM ~ 8.33 *)
  bandwidth_mb_s : float;  (** media transfer rate (default 40.0) *)
  seed : int;  (** PRNG seed for rotational positions *)
}

val default_params : params

(** {1 Images} *)

type image
(** An immutable disk image, structurally shared chunk by chunk. *)

val blank_image : block_size:int -> num_blocks:int -> image
(** The all-zeroes image: one [None] per chunk, no block buffer. *)

val image_block : image -> int -> bytes
(** The frozen buffer for one block — {b do not mutate}. Untouched
    blocks return the shared zero block.
    @raise Invalid_argument if the block is out of range. *)

val image_chunks_touched : image -> int
(** Materialized chunks: the image's footprint in chunk units. *)

val image_blocks_touched : image -> int
(** Blocks holding private (non-zero-aliased) buffers. *)

(** {1 The device} *)

type t

val create : ?params:params -> unit -> t
(** A fresh device over the blank image. Default: {!default_params}. *)

val dev : t -> Dev.t

val dirty_count : t -> int
(** Blocks written since the last {!restore}/{!snapshot}. *)

(** {1 Statistics and timing} *)

type stats = Model.stats = {
  reads : int;
  writes : int;
  syncs : int;
  seeks : int;  (** requests that required arm movement *)
  elapsed_ms : float;  (** total simulated service time *)
}

val stats : t -> stats
val reset_stats : t -> unit

val set_time_model : t -> bool -> unit
(** Disable ([false]) or enable the service-time model. Fingerprinting
    campaigns disable it (they care about behaviour, not time); the
    benchmark harness enables it. Default: enabled. *)

(** {1 Raw access for setup, verification and snapshots}

    These bypass the timing model and statistics. *)

val peek : t -> int -> bytes
(** A fresh copy of the block's current contents.
    @raise Invalid_argument if the block is out of range. *)

val poke : t -> int -> bytes -> unit
(** Overwrite the first [min (length data) block_size] bytes of the
    block; the rest keeps its contents.
    @raise Invalid_argument if the block is out of range. *)

val snapshot : t -> image
(** Freeze the current state. O(dirty): clean chunks are shared with
    the old image, a chunk holding dirty blocks is copied once (a
    pointer array) and the dirty buffers are adopted into it. The
    device continues over the new image with an empty overlay, so the
    snapshot is immutable. O(1) when nothing is dirty. *)

val restore : t -> image -> unit
(** Point the device at [img], dropping the overlay (O(dirty), buffers
    recycled) and resetting statistics, clock, head position and the
    dirty flag — identical initial conditions for every run.
    @raise Invalid_argument if [img]'s geometry differs from the
    device's. *)
