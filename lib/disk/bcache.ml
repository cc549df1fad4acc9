module Arena = Iron_util.Arena

(* One resident block. [checked] is the owner's verify-once mark; every
   change to [data] clears it. *)
type entry = { mutable data : bytes; mutable checked : bool }

type t = {
  device : Dev.t;
  capacity : int;
  table : (int, entry) Hashtbl.t;
  order : int Queue.t; (* exactly the resident blocks, oldest first *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 256) device =
  { device; capacity; table = Hashtbl.create 64; order = Queue.create (); hits = 0; misses = 0 }

let dev t = t.device

(* Cache-owned buffers are drawn from (and returned to) the calling
   domain's block arena. This is sound because the internal buffers
   never outlive their entry in anyone's hands: [read] hands out copies,
   [read_into] blits, [peek]'s borrow ends at the next cache operation,
   and the only adopted buffers are [fill]'s fresh ones and [insert]'s
   private copies. Looked up per call rather than stored so a cache
   created on one domain but used on another (never happens today)
   stays safe. *)
let arena t = Arena.block t.device.Dev.block_size

let evict_if_full t =
  while Hashtbl.length t.table >= t.capacity && not (Queue.is_empty t.order) do
    let victim = Queue.pop t.order in
    Arena.put (arena t) (Hashtbl.find t.table victim).data;
    Hashtbl.remove t.table victim
  done

(* [insert] copies the caller's buffer; [insert_own] adopts it (the
   zero-copy fill path — the caller must not reuse the buffer). A block
   already resident keeps its place in the eviction order. *)
let insert_own t b data =
  match Hashtbl.find_opt t.table b with
  | Some e ->
      (* Replacing in place: recycle the displaced buffer (guarding
         against a caller re-adopting the cached buffer itself). *)
      if e.data != data then Arena.put (arena t) e.data;
      e.data <- data;
      e.checked <- false
  | None ->
      evict_if_full t;
      Queue.push b t.order;
      Hashtbl.replace t.table b { data; checked = false }

let insert t b data = insert_own t b (Arena.copy (arena t) data)

(* Miss path: fill a fresh cache-owned buffer via the device's
   zero-copy read and adopt it — one allocation instead of the two the
   read-then-copy discipline used to cost. *)
let fill t b =
  let buf = Arena.get (arena t) in
  match t.device.Dev.read_into b buf with
  | Ok () ->
      insert_own t b buf;
      Ok buf
  | Error _ as e ->
      Arena.put (arena t) buf;
      e

let peek t b =
  match Hashtbl.find_opt t.table b with
  | Some e ->
      t.hits <- t.hits + 1;
      Ok e.data
  | None ->
      t.misses <- t.misses + 1;
      fill t b

let read t b =
  match peek t b with Ok data -> Ok (Bytes.copy data) | Error _ as e -> e

let read_into t b buf =
  match peek t b with
  | Ok data ->
      Bytes.blit data 0 buf 0 (min (Bytes.length data) (Bytes.length buf));
      Ok ()
  | Error _ as e -> e

let checked t b =
  match Hashtbl.find_opt t.table b with Some e -> e.checked | None -> false

let set_checked t b v =
  match Hashtbl.find_opt t.table b with Some e -> e.checked <- v | None -> ()

let write t b data =
  insert t b data;
  t.device.Dev.write b data

let sync t = t.device.Dev.sync ()

let invalidate t b =
  match Hashtbl.find_opt t.table b with
  | Some e ->
      Arena.put (arena t) e.data;
      Hashtbl.remove t.table b;
      (* Drop its slot too, so eviction stays exact FIFO over the
         resident blocks. Linear, but only the rare replica-adoption
         path invalidates. *)
      let rest = Queue.create () in
      Queue.iter (fun x -> if x <> b then Queue.push x rest) t.order;
      Queue.clear t.order;
      Queue.transfer rest t.order
  | None -> ()

let invalidate_all t =
  let a = arena t in
  Hashtbl.iter (fun _ e -> Arena.put a e.data) t.table;
  Hashtbl.reset t.table;
  Queue.clear t.order

let hits t = t.hits
let misses t = t.misses
