(* The simulated disk: one chunked copy-on-write image under the shared
   Model service-time engine.

   - The frozen {e image} is an array of 512-block chunks; a chunk is
     [None] until a block inside it is first frozen, and a materialized
     chunk's untouched slots alias the shared zero block.
   - The {e overlay} is dense per chunk: [overlay.(c)] is [[||]] until
     chunk [c] is first dirtied, then one slot per block, [clean] or
     the block's private heap buffer. The insertion-ordered dirty list
     drives snapshot and restore. A restore returns the dropped
     buffers to the domain's block arena, which every later write (and
     every block cache above) draws from.
   - Zeroes written over a clean block that still aliases the zero
     block are charged and counted but materialize nothing.

   Snapshot adopts the dirty buffers into copied chunk arrays (no block
   is copied); restore drops the overlay. Both are O(dirty). *)

module Arena = Iron_util.Arena

type params = Model.params = {
  block_size : int;
  num_blocks : int;
  seek_min_ms : float;
  seek_span_ms : float;
  rotation_ms : float;
  bandwidth_mb_s : float;
  seed : int;
}

let default_params = Model.default_params

type stats = Model.stats = {
  reads : int;
  writes : int;
  syncs : int;
  seeks : int;
  elapsed_ms : float;
}

let chunk_shift = 9
let chunk_blocks = 1 lsl chunk_shift (* 2 MiB of 4 KiB blocks *)
let slot b = b land (chunk_blocks - 1)

(* The shared all-zeroes block, one per block size. Images alias it in
   every untouched slot; that is safe because images are frozen. *)
let zero_blocks : (int, bytes) Hashtbl.t = Hashtbl.create 4
let zero_mutex = Mutex.create ()

let zero_block bs =
  Mutex.protect zero_mutex (fun () ->
      match Hashtbl.find_opt zero_blocks bs with
      | Some b -> b
      | None ->
          let b = Bytes.make bs '\000' in
          Hashtbl.add zero_blocks bs b;
          b)

type image = {
  i_block_size : int;
  i_num_blocks : int;
  i_zero : bytes;
  i_chunks : bytes array option array; (* [None] = untouched, all zero *)
}

let blank_image ~block_size ~num_blocks =
  {
    i_block_size = block_size;
    i_num_blocks = num_blocks;
    i_zero = zero_block block_size;
    i_chunks =
      Array.make ((num_blocks + chunk_blocks - 1) lsr chunk_shift) None;
  }

let frozen img b =
  match img.i_chunks.(b lsr chunk_shift) with
  | None -> img.i_zero
  | Some arr -> arr.(slot b)

let image_block img b =
  if b < 0 || b >= img.i_num_blocks then
    invalid_arg "Memdisk.image_block: block out of range";
  frozen img b

let image_chunks_touched img =
  Array.fold_left
    (fun n c -> if Option.is_some c then n + 1 else n)
    0 img.i_chunks

let image_blocks_touched img =
  Array.fold_left
    (fun n c ->
      match c with
      | None -> n
      | Some arr ->
          Array.fold_left
            (fun n b -> if b == img.i_zero then n else n + 1)
            n arr)
    0 img.i_chunks

let clean = Bytes.empty

type t = {
  params : params;
  model : Model.t;
  mutable base : image;
  overlay : bytes array array; (* per chunk; [[||]] until first dirtied *)
  mutable dirty : int array; (* dirty block numbers, insertion order *)
  mutable ndirty : int;
}

let create ?(params = default_params) () =
  let base =
    blank_image ~block_size:params.block_size ~num_blocks:params.num_blocks
  in
  {
    params;
    model = Model.create params;
    base;
    overlay = Array.make (Array.length base.i_chunks) [||];
    dirty = Array.make 64 0;
    ndirty = 0;
  }

let dirty_count t = t.ndirty

let note_dirty t b =
  if t.ndirty = Array.length t.dirty then begin
    let bigger = Array.make (2 * t.ndirty) 0 in
    Array.blit t.dirty 0 bigger 0 t.ndirty;
    t.dirty <- bigger
  end;
  t.dirty.(t.ndirty) <- b;
  t.ndirty <- t.ndirty + 1

let in_range t b = b >= 0 && b < t.params.num_blocks

let chunk_len t c =
  min chunk_blocks (t.params.num_blocks - (c lsl chunk_shift))

(* The block's current bytes: its overlay buffer if dirty, else the
   frozen image's. Never mutate the result. *)
let current t b =
  let ov = t.overlay.(b lsr chunk_shift) in
  if Array.length ov = 0 || ov.(slot b) == clean then frozen t.base b
  else ov.(slot b)

(* The block's private overlay buffer, drawn from the arena on first
   touch. [~init] seeds a new buffer from the image — needed for
   partial writes, skipped when the caller overwrites it all. *)
let own t b ~init =
  let c = b lsr chunk_shift in
  let ov =
    match t.overlay.(c) with
    | [||] ->
        let ov = Array.make (chunk_len t c) clean in
        t.overlay.(c) <- ov;
        ov
    | ov -> ov
  in
  let buf = ov.(slot b) in
  if buf != clean then buf
  else begin
    let buf = Arena.get (Arena.block t.params.block_size) in
    if init then Bytes.blit (frozen t.base b) 0 buf 0 t.params.block_size;
    ov.(slot b) <- buf;
    note_dirty t b;
    buf
  end

let read t b =
  if not (in_range t b) then Error Dev.Enxio
  else begin
    Model.charge_read t.model b;
    Ok (Bytes.copy (current t b))
  end

let read_into t b buf =
  if not (in_range t b) then Error Dev.Enxio
  else if Bytes.length buf <> t.params.block_size then Error Dev.Eio
  else begin
    Model.charge_read t.model b;
    Bytes.blit (current t b) 0 buf 0 t.params.block_size;
    Ok ()
  end

let write t b data =
  if not (in_range t b) then Error Dev.Enxio
  else if Bytes.length data <> t.params.block_size then Error Dev.Eio
  else begin
    Model.charge_write t.model b;
    let zero = t.base.i_zero in
    (* Zeroes over a still-zero clean block change nothing. *)
    if not (current t b == zero && Bytes.equal data zero) then
      Bytes.blit data 0 (own t b ~init:false) 0 t.params.block_size;
    Ok ()
  end

let sync t =
  Model.charge_sync t.model;
  Ok ()

let dev t =
  {
    Dev.block_size = t.params.block_size;
    num_blocks = t.params.num_blocks;
    read = read t;
    read_into = read_into t;
    write = write t;
    sync = (fun () -> sync t);
    now = (fun () -> Model.now t.model);
  }

let stats t = Model.stats t.model
let reset_stats t = Model.reset_stats t.model
let set_time_model t on = Model.set_timed t.model on

let check_block fn t b =
  if not (in_range t b) then
    invalid_arg (Printf.sprintf "Memdisk.%s: block %d out of range" fn b)

let peek t b =
  check_block "peek" t b;
  Bytes.copy (current t b)

let poke t b data =
  check_block "poke" t b;
  Bytes.blit data 0 (own t b ~init:true) 0
    (min (Bytes.length data) t.params.block_size)

(* Freeze the current state. A chunk with no dirty block is shared
   with the old image; a dirty chunk is copied once (a pointer array)
   and its dirty buffers are adopted, leaving their overlay slots
   clean. *)
let snapshot t =
  if t.ndirty = 0 then t.base
  else begin
    let old = t.base.i_chunks in
    let chunks = Array.copy old in
    for i = 0 to t.ndirty - 1 do
      let b = t.dirty.(i) in
      let c = b lsr chunk_shift in
      let arr =
        match (chunks.(c), old.(c)) with
        | Some arr, Some shared when arr == shared ->
            let arr = Array.copy arr in
            chunks.(c) <- Some arr;
            arr
        | Some arr, _ -> arr
        | None, _ ->
            let arr = Array.make (chunk_len t c) t.base.i_zero in
            chunks.(c) <- Some arr;
            arr
      in
      let ov = t.overlay.(c) in
      arr.(slot b) <- ov.(slot b);
      ov.(slot b) <- clean
    done;
    t.ndirty <- 0;
    t.base <- { t.base with i_chunks = chunks };
    t.base
  end

(* Point the device at [img]: drop the overlay (no one else holds its
   buffers, so they go back to the arena) and reset the model, so every
   run starts from identical conditions. The executor restores
   speculatively at job end; a clean device already on [img] only has
   its model reset. *)
let restore t img =
  if
    img.i_num_blocks <> t.params.num_blocks
    || img.i_block_size <> t.params.block_size
  then invalid_arg "Memdisk.restore: image geometry mismatch";
  let arena = Arena.block t.params.block_size in
  for i = 0 to t.ndirty - 1 do
    let b = t.dirty.(i) in
    let ov = t.overlay.(b lsr chunk_shift) in
    Arena.put arena ov.(slot b);
    ov.(slot b) <- clean
  done;
  t.ndirty <- 0;
  t.base <- img;
  Model.reset t.model
