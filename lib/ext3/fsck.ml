open Iron_util
module Dev = Iron_disk.Dev
module Errno = Iron_vfs.Errno

let ( let* ) = Result.bind

type finding = {
  severity : [ `Error | `Warning ];
  message : string;
  repaired : bool;
}

type report = { findings : finding list; clean : bool }

let pp_report fmt r =
  if r.findings = [] then Format.fprintf fmt "fsck: clean@."
  else begin
    List.iter
      (fun f ->
        Format.fprintf fmt "fsck %s: %s%s@."
          (match f.severity with `Error -> "ERROR" | `Warning -> "warn")
          f.message
          (if f.repaired then " [repaired]" else ""))
      r.findings;
    Format.fprintf fmt "fsck: %s@." (if r.clean then "clean" else "errors found")
  end

let bit_get buf i = Char.code (Bytes.get buf (i / 8)) land (1 lsl (i mod 8)) <> 0

let bit_set buf i on =
  let v = Char.code (Bytes.get buf (i / 8)) in
  let v' = if on then v lor (1 lsl (i mod 8)) else v land lnot (1 lsl (i mod 8)) in
  Bytes.set buf (i / 8) (Char.chr (v' land 0xFF))

(* Cost model. Crash exploration and fuzzing run this once per crash
   state, so it is priced to the live metadata, not the volume: one read
   per inode-table block, a kind-byte test per slot ([Inode.kind_at];
   only live slots are decoded), the pointer trees of live inodes, and bytewise bitmap comparisons that
   drop to per-bit work only where a byte differs. Block buffers come
   from the domain's [Arena] and go back when the check ends; every
   [Dev.write] copies its argument, so handing a pooled buffer to a
   repair write is safe. *)
let run ?(repair = false) dev =
  let arena = Arena.block dev.Dev.block_size in
  (* Memoize successful reads: pass 1 touches the same indirect blocks
     once per pointer, pass 2 walks directory trees pass 1 already read,
     and pass 4 re-reads the table blocks. Caching is sound here because
     fsck runs on a quiesced device (nobody writes behind its back) and
     repairs mutate the cached buffer itself before writing it out, so
     cache and device stay coherent. Failed reads are NOT cached so
     transient-error semantics are kept. *)
  let cache = Hashtbl.create 64 in
  let read b =
    match Hashtbl.find_opt cache b with
    | Some _ as hit -> hit
    | None -> (
        let buf = Arena.get arena in
        match dev.Dev.read_into b buf with
        | Ok () ->
            Hashtbl.add cache b buf;
            Some buf
        | Error _ ->
            Arena.put arena buf;
            None)
  in
  let* lay =
    match read 0 with
    | None -> Error Errno.EIO
    | Some buf -> (
        match Sb.decode buf with
        | Ok sb ->
            Ok
              (Layout.compute ~block_size:sb.Sb.block_size
                 ~num_blocks:sb.Sb.num_blocks)
        | Error e -> Error e)
  in
  let nb = lay.Layout.num_blocks in
  let ppb = lay.Layout.ptrs_per_block in
  let findings = ref [] in
  let errors = ref 0 in
  let note severity repaired fmt =
    Format.kasprintf
      (fun message ->
        if severity = `Error && not repaired then incr errors;
        findings := { severity; message; repaired } :: !findings)
      fmt
  in
  (* Pass 1: walk every live inode, collecting reachable blocks and the
     directory graph. *)
  let reachable = Hashtbl.create 256 in
  (* Dense mirror of [reachable] over the data blocks, laid out like the
     block bitmaps (one [gbytes] stretch per group) so pass 3 compares
     whole bytes. *)
  let dpg = Layout.data_blocks_per_group lay in
  let gbytes = (dpg + 7) / 8 in
  let reach_bits = Bytes.make (lay.Layout.ngroups * gbytes) '\000' in
  let total = Layout.total_inodes lay in
  (* Dense mirror of [live]'s domain, probed by passes 2 and 3. *)
  let live_map = Bytes.make (total + 1) '\000' in
  let is_live ino = ino >= 1 && ino <= total && Bytes.get live_map ino <> '\000' in
  let dir_refs = Array.make (total + 1) 0 in (* ino -> #entries pointing at it *)
  (* ino -> inode. Passes 2 and 4 iterate it, so its insertion order
     fixes the order of their findings. *)
  let live = Hashtbl.create 64 in
  let add_live ino i =
    Hashtbl.replace live ino i;
    Bytes.set live_map ino '\001'
  in
  let claim b what =
    if b > 0 && b < nb then begin
      (match Hashtbl.find_opt reachable b with
      | Some prior ->
          note `Error false "block %d claimed by both %s and %s" b prior what
      | None -> ());
      Hashtbl.replace reachable b what;
      match Layout.group_of_block lay b with
      | Some g ->
          let i = b - Layout.data_start lay g in
          if i >= 0 then bit_set reach_bits ((g * gbytes * 8) + i) true
      | None -> ()
    end
    else if b <> 0 then note `Error false "%s points at impossible block %d" what b
  in
  let iter_ptrs b f =
    match read b with
    | None -> ()
    | Some blk ->
        for k = 0 to ppb - 1 do
          f k (Codec.read_u32 blk (k * 4))
        done
  in
  (* Claim everything under pointer block [b], [depth] levels above
     the data. *)
  let rec claim_tree what depth b =
    iter_ptrs b (fun _ p ->
        if depth = 1 then (if p > 0 then claim p what)
        else if p > 0 && p < nb then begin
          claim p what;
          claim_tree what (depth - 1) p
        end)
  in
  (* The data pointers of [i]'s first [n] file blocks, in file order —
     the walk [Ext3.bmap] makes. [span] is how many file blocks each
     pointer of [b] covers; subtrees past block [n] are not read. *)
  let iter_data (i : Inode.t) n f =
    let dp = lay.Layout.direct_ptrs in
    for fb = 0 to min n dp - 1 do
      f i.Inode.direct.(fb)
    done;
    let rec walk span b lo =
      if lo < n && b > 0 && b < nb then
        iter_ptrs b (fun k p ->
            let lo = lo + (k * span) in
            if span = 1 then (if lo < n then f p) else walk (span / ppb) p lo)
    in
    walk 1 i.Inode.ind dp;
    walk ppb i.Inode.dind (dp + ppb);
    walk (ppb * ppb) i.Inode.tind (dp + ppb + (ppb * ppb))
  in
  let max_blocks = Inode.max_file_blocks lay in
  let ipb = lay.Layout.inodes_per_block in
  for g = 0 to lay.Layout.ngroups - 1 do
    for k = 0 to lay.Layout.itable_blocks - 1 do
      let blk = Layout.itable_block lay g + k in
      (* Read once; a failed read is retried by the next slot. *)
      let table = ref None in
      for s = 0 to ipb - 1 do
        let ino = (g * lay.Layout.inodes_per_group) + (k * ipb) + s + 1 in
        if Option.is_none !table then table := read blk;
        match !table with
        | None -> note `Error false "inode table block %d unreadable" blk
        | Some buf -> (
            let off = s * lay.Layout.inode_size in
            match Inode.kind_at buf off with
            | Inode.Free -> ()
            | Inode.Symlink -> add_live ino (Inode.decode lay buf off)
            | Inode.Regular | Inode.Directory ->
                let i = Inode.decode lay buf off in
                add_live ino i;
                let what = Printf.sprintf "inode %d" ino in
                if i.Inode.size > max_blocks * lay.Layout.block_size then
                  note `Error false "inode %d has impossible size %d" ino i.Inode.size;
                Array.iter (fun p -> if p > 0 then claim p what) i.Inode.direct;
                let claim_root depth b =
                  if b > 0 then begin
                    claim b what;
                    claim_tree what depth b
                  end
                in
                claim_root 1 i.Inode.ind;
                claim_root 2 i.Inode.dind;
                claim_root 3 i.Inode.tind;
                if i.Inode.parity > 0 then claim i.Inode.parity what)
      done
    done
  done;
  (* Pass 1b: dynamic replica shadows (ixt3 Mr) are referenced only
     from the replica map; they are reachable too. *)
  for m = 0 to lay.Layout.rmap_blocks - 1 do
    match read (lay.Layout.rmap_start + m) with
    | None -> ()
    | Some buf ->
        for i = 0 to (lay.Layout.block_size / 4) - 1 do
          let shadow = Codec.read_u32 buf (i * 4) in
          if shadow > 0 && shadow < nb then claim shadow "replica map"
        done
  done;
  (* Pass 2: read directories, counting references. The root counts as
     referenced by convention. *)
  let ref_ino ino = dir_refs.(ino) <- dir_refs.(ino) + 1 in
  ref_ino Layout.root_ino;
  Hashtbl.iter
    (fun ino (i : Inode.t) ->
      if i.Inode.kind = Inode.Directory then
        let n = (i.Inode.size + lay.Layout.block_size - 1) / lay.Layout.block_size in
        iter_data i n (fun b ->
            if b > 0 && b < nb then
              match read b with
              | None -> ()
              | Some buf ->
                  let entries = Dirent.decode buf in
                  let keep (name, child) =
                    name = "." || name = ".." || is_live child
                  in
                  List.iter
                    (fun ((name, child) as e) ->
                      if not (keep e) then
                        note `Error repair
                          "directory %d entry %S references dead inode %d" ino name
                          child
                      else if name <> "." && name <> ".." then ref_ino child)
                    entries;
                  if repair && not (List.for_all keep entries) then begin
                    ignore (Dirent.encode buf (List.filter keep entries));
                    ignore (dev.Dev.write b buf)
                  end))
    live;
  (* Pass 3: bitmaps vs reality. *)
  for g = 0 to lay.Layout.ngroups - 1 do
    let bb = Layout.bitmap_block lay g in
    (match read bb with
    | None -> note `Error false "bitmap block %d unreadable" bb
    | Some buf ->
        let dirty = ref false in
        let base = g * gbytes and first = Layout.data_start lay g in
        for byte = 0 to gbytes - 1 do
          (* Equal bytes hold no finding. [reach_bits] is clear past
             [dpg], and the bit loop stops there, so the partial last
             byte needs no special case. *)
          if Bytes.get buf byte <> Bytes.get reach_bits (base + byte) then
            for i = byte * 8 to min dpg ((byte * 8) + 8) - 1 do
              let b = first + i in
              let marked = bit_get buf i in
              let used = bit_get reach_bits ((base * 8) + i) in
              if marked && not used then begin
                note `Warning repair "block %d marked allocated but unreachable (leak)" b;
                if repair then begin
                  bit_set buf i false;
                  dirty := true
                end
              end
              else if used && not marked then begin
                note `Error repair "block %d in use but free in the bitmap" b;
                if repair then begin
                  bit_set buf i true;
                  dirty := true
                end
              end
            done
        done;
        if !dirty then ignore (dev.Dev.write bb buf));
    let ib = Layout.ibitmap_block lay g in
    match read ib with
    | None -> note `Error false "inode bitmap block %d unreadable" ib
    | Some buf ->
        let dirty = ref false in
        for i = 0 to lay.Layout.inodes_per_group - 1 do
          let ino = (g * lay.Layout.inodes_per_group) + i + 1 in
          let marked = bit_get buf i in
          let used = ino = 1 || is_live ino in
          if marked && not used then begin
            note `Warning repair "inode %d marked allocated but free" ino;
            if repair then begin
              bit_set buf i false;
              dirty := true
            end
          end
          else if used && ino > 1 && not marked then begin
            note `Error repair "inode %d live but free in the inode bitmap" ino;
            if repair then begin
              bit_set buf i true;
              dirty := true
            end
          end
        done;
        if !dirty then ignore (dev.Dev.write ib buf)
  done;
  (* Pass 4: link counts. *)
  Hashtbl.iter
    (fun ino (i : Inode.t) ->
      let expected =
        match i.Inode.kind with
        | Inode.Directory ->
            (* Directory link arithmetic ("." + parent + children) is
               left to the mount-time structures; fsck only enforces
               file/symlink counts, as the classic tool does first. *)
            i.Inode.links
        | Inode.Regular | Inode.Symlink -> dir_refs.(ino)
        | Inode.Free -> 0
      in
      if i.Inode.kind <> Inode.Directory && expected <> i.Inode.links then begin
        note `Error repair "inode %d has links=%d but %d references" ino
          i.Inode.links expected;
        if repair then begin
          let blk, off = Layout.inode_location lay ino in
          match read blk with
          | None -> ()
          | Some buf ->
              Inode.encode lay { i with Inode.links = expected } buf off;
              ignore (dev.Dev.write blk buf)
        end
      end)
    live;
  ignore (dev.Dev.sync ());
  Hashtbl.iter (fun _ buf -> Arena.put arena buf) cache;
  Ok { findings = List.rev !findings; clean = !errors = 0 }
