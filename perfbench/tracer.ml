(* Outside-in layer accounting for the traced benchmark run.

   Nothing inside the program is instrumented. Instead the benchmark
   wraps each file-system brand in [Fs_traced], a functor over
   [Fs.S] that keeps [fs_name] and times every VFS entry point and
   the gray-box classifier; the same wrapper interposes [dev] on the
   device handed to [mkfs]/[mount], so the disk stack beneath the
   file system ([Fault] -> [Cow] | [Sparse], plus [Wlog] while
   recording) is timed too. Whatever the measured window spends
   outside every wrapped call is the harness's own work.

   Each wrapped call is a span on one stack. A span's self time is its
   duration minus the durations of the spans it directly encloses;
   allocated words are split the same way. Spans with no enclosing
   span add to [top], so [window - top] is the harness self time.

   Single-domain by design: every benchmark run uses [-j 1]. *)

module Fs = Iron_vfs.Fs
module Dev = Iron_disk.Dev

type acc = {
  mutable calls : int;
  mutable self_s : float;
  mutable self_words : float;
  mutable errors : int;
}

let acc () = { calls = 0; self_s = 0.; self_words = 0.; errors = 0 }

let reset_acc a =
  a.calls <- 0;
  a.self_s <- 0.;
  a.self_words <- 0.;
  a.errors <- 0

(* Swappable so the self-time arithmetic can be tested against a
   scripted clock. *)
let clock : (unit -> float) ref = ref Unix.gettimeofday

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type frame = { mutable child_s : float; mutable child_words : float }

let stack : frame list ref = ref []
let top = acc ()

let vfs_ops = [ "mkfs"; "mount"; "unmount"; "read"; "write"; "meta"; "fsync" ]
let vfs = List.map (fun op -> (op, acc ())) vfs_ops
let vfs_op op = List.assoc op vfs
let vfs_panics = ref 0
let classify = acc ()
let dev_read = acc ()
let dev_write = acc ()
let dev_sync = acc ()
let dev_bytes_written = ref 0

let reset () =
  stack := [];
  List.iter reset_acc ([ top; classify; dev_read; dev_write; dev_sync ] @ List.map snd vfs);
  vfs_panics := 0;
  dev_bytes_written := 0

(* [timed a f] runs [f ()] as one span charged to [a]. [~count:false]
   charges the time without counting a call (the classifier's
   per-image set-up). *)
let timed ?(count = true) a f =
  let fr = { child_s = 0.; child_words = 0. } in
  let parent = !stack in
  stack := fr :: parent;
  let w0 = words () in
  let t0 = !clock () in
  let finish () =
    let d = !clock () -. t0 in
    let w = words () -. w0 in
    stack := parent;
    if count then a.calls <- a.calls + 1;
    a.self_s <- a.self_s +. (d -. fr.child_s);
    a.self_words <- a.self_words +. (w -. fr.child_words);
    match parent with
    | p :: _ ->
        p.child_s <- p.child_s +. d;
        p.child_words <- p.child_words +. w
    | [] ->
        top.self_s <- top.self_s +. d;
        top.self_words <- top.self_words +. w
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let timed_result a f =
  let r = timed a f in
  (match r with Error _ -> a.errors <- a.errors + 1 | Ok _ -> ());
  r

let dev (d : Dev.t) : Dev.t =
  {
    d with
    read = (fun b -> timed_result dev_read (fun () -> d.read b));
    read_into = (fun b buf -> timed_result dev_read (fun () -> d.read_into b buf));
    write =
      (fun b data ->
        let r = timed_result dev_write (fun () -> d.write b data) in
        if Result.is_ok r then
          dev_bytes_written := !dev_bytes_written + Bytes.length data;
        r);
    sync = (fun () -> timed_result dev_sync d.sync);
  }

let call a f =
  try timed_result a f
  with Iron_vfs.Klog.Panic _ as e ->
    incr vfs_panics;
    raise e

module Fs_traced (F : Fs.S) : Fs.S with type t = F.t = struct
  include F

  let mkfs_ = vfs_op "mkfs"
  let mount_ = vfs_op "mount"
  let unmount_ = vfs_op "unmount"
  let read_ = vfs_op "read"
  let write_ = vfs_op "write"
  let meta = vfs_op "meta"
  let fsync_ = vfs_op "fsync"

  let classifier raw =
    let c = timed ~count:false classify (fun () -> F.classifier raw) in
    fun b -> timed classify (fun () -> c b)

  let mkfs d = call mkfs_ (fun () -> F.mkfs (dev d))
  let mount d = call mount_ (fun () -> F.mount (dev d))
  let unmount t = call unmount_ (fun () -> F.unmount t)
  let access t p = call meta (fun () -> F.access t p)
  let chdir t p = call meta (fun () -> F.chdir t p)
  let chroot t p = call meta (fun () -> F.chroot t p)
  let stat t p = call meta (fun () -> F.stat t p)
  let lstat t p = call meta (fun () -> F.lstat t p)
  let statfs t = call meta (fun () -> F.statfs t)
  let open_ t p m = call meta (fun () -> F.open_ t p m)
  let close t fd = call meta (fun () -> F.close t fd)
  let creat t p = call meta (fun () -> F.creat t p)
  let read t fd ~off ~len = call read_ (fun () -> F.read t fd ~off ~len)
  let write t fd ~off data = call write_ (fun () -> F.write t fd ~off data)
  let readlink t p = call meta (fun () -> F.readlink t p)
  let getdirentries t p = call meta (fun () -> F.getdirentries t p)
  let link t a b = call meta (fun () -> F.link t a b)
  let symlink t a b = call meta (fun () -> F.symlink t a b)
  let mkdir t p = call meta (fun () -> F.mkdir t p)
  let rmdir t p = call meta (fun () -> F.rmdir t p)
  let unlink t p = call meta (fun () -> F.unlink t p)
  let rename t a b = call meta (fun () -> F.rename t a b)
  let truncate t p n = call meta (fun () -> F.truncate t p n)
  let chmod t p m = call meta (fun () -> F.chmod t p m)
  let chown t p u g = call meta (fun () -> F.chown t p u g)
  let utimes t p a m = call meta (fun () -> F.utimes t p a m)
  let fsync t fd = call fsync_ (fun () -> F.fsync t fd)
  let sync t = call fsync_ (fun () -> F.sync t)
end

let brand (Fs.Brand (module F)) =
  let module T = Fs_traced (F) in
  Fs.Brand (module T)

(* The layer metrics the wrappers own, as (name, value, unit). *)
let metrics () =
  let vfs_metrics =
    List.concat_map
      (fun (op, a) ->
        [
          ("vfs." ^ op ^ ".calls", float_of_int a.calls, "count");
          ("vfs." ^ op ^ ".self_s", a.self_s, "s");
        ])
      vfs
  in
  let sum f = List.fold_left (fun s (_, a) -> s +. f a) 0. vfs in
  vfs_metrics
  @ [
      ("vfs.errors", sum (fun a -> float_of_int a.errors), "count");
      ("vfs.panics", float_of_int !vfs_panics, "count");
      ("vfs.alloc_words", sum (fun a -> a.self_words), "words");
      ("classifier.calls", float_of_int classify.calls, "count");
      ("classifier.self_s", classify.self_s, "s");
      ("dev.read.calls", float_of_int dev_read.calls, "count");
      ("dev.read.self_s", dev_read.self_s, "s");
      ("dev.write.calls", float_of_int dev_write.calls, "count");
      ("dev.write.self_s", dev_write.self_s, "s");
      ("dev.sync.calls", float_of_int dev_sync.calls, "count");
      ("dev.sync.self_s", dev_sync.self_s, "s");
      ("dev.read.errors", float_of_int dev_read.errors, "count");
      ("dev.write.errors", float_of_int dev_write.errors, "count");
      ("dev.bytes_written", float_of_int !dev_bytes_written, "B");
    ]
