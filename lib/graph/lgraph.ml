open Ssg_util

(* Dense n×n label matrix; labels.(q*n + p) is the label of edge q -> p,
   0 when absent.  The node set is tracked separately because Algorithm 1
   distinguishes isolated nodes (members of V_p without edges) from absent
   ones.

   Beside the labels, one edge-presence bitset per row, [w] words each:
   bit (p mod word_bits) of support.(q*w + p / word_bits) is set iff
   labels.(q*n + p) > 0.  Every mutator keeps this support invariant, so
   label-blind work (support comparison, edge counts, pruning) reads
   words, and every pass over edges visits the set bits of non-empty
   rows only.

   [shared] is the copy-on-write mark.  [copy] returns a second record
   over the same buffers and marks both; a mutator on a shared record
   first moves it onto private buffers, so neither handle ever observes
   the other's writes. *)
type t = {
  n : int;
  w : int;
  mutable nodes : Bitset.t;
  mutable labels : int array;
  mutable support : int array;
  mutable shared : bool;
}

let wb = Bitset.word_bits

let check_node g i =
  if i < 0 || i >= g.n then
    invalid_arg (Printf.sprintf "Lgraph: node %d out of range [0, %d)" i g.n)

let create n ~self =
  if n <= 0 then invalid_arg "Lgraph.create: empty universe";
  let w = ((n - 1) / wb) + 1 in
  let g =
    {
      n;
      w;
      nodes = Bitset.create n;
      labels = Array.make (n * n) 0;
      support = Array.make (n * w) 0;
      shared = false;
    }
  in
  check_node g self;
  Bitset.add g.nodes self;
  g

let capacity g = g.n

(* Move a shared record onto private copies of its buffers. *)
let own g =
  if g.shared then begin
    g.nodes <- Bitset.copy g.nodes;
    g.labels <- Array.copy g.labels;
    g.support <- Array.copy g.support;
    g.shared <- false
  end

(* Zero row [q]: its labels at the set bits of its support, then the
   support words. *)
let clear_row g q =
  let base = q * g.w in
  for i = 0 to g.w - 1 do
    let bits = ref g.support.(base + i) in
    if !bits <> 0 then begin
      let lbase = (q * g.n) + (i * wb) in
      while !bits <> 0 do
        g.labels.(lbase + Bitset.lowest_bit !bits) <- 0;
        bits := !bits land (!bits - 1)
      done;
      g.support.(base + i) <- 0
    end
  done

let reset g ~self =
  check_node g self;
  if g.shared then begin
    (* the shared buffers stay with the other handle; nothing to copy *)
    g.nodes <- Bitset.create g.n;
    g.labels <- Array.make (g.n * g.n) 0;
    g.support <- Array.make (g.n * g.w) 0;
    g.shared <- false
  end
  else begin
    Bitset.clear g.nodes;
    for q = 0 to g.n - 1 do
      clear_row g q
    done
  end;
  Bitset.add g.nodes self

let copy g =
  g.shared <- true;
  { g with shared = true }

let equal a b =
  a.n = b.n && Bitset.equal a.nodes b.nodes && a.labels = b.labels

(* Same node set and same edge-presence pattern, labels ignored: a
   compare of the support rows, no allocation — the key to memoizing
   label-blind derivations (strong connectivity) across rounds that only
   refresh labels. *)
let same_support a b =
  a.n = b.n
  && Bitset.equal a.nodes b.nodes
  &&
  let len = Array.length a.support in
  let rec go i = i >= len || (a.support.(i) = b.support.(i) && go (i + 1)) in
  go 0

let mem_node g p =
  check_node g p;
  Bitset.mem g.nodes p

let add_node g p =
  check_node g p;
  own g;
  Bitset.add g.nodes p

let nodes g = Bitset.copy g.nodes
let node_count g = Bitset.cardinal g.nodes

let label g q p =
  check_node g q;
  check_node g p;
  g.labels.((q * g.n) + p)

let mem_edge g q p = label g q p > 0

let set_edge g q p ~label =
  check_node g q;
  check_node g p;
  if label <= 0 then invalid_arg "Lgraph.set_edge: label must be positive";
  own g;
  Bitset.add g.nodes q;
  Bitset.add g.nodes p;
  g.labels.((q * g.n) + p) <- label;
  let i = (q * g.w) + (p / wb) in
  g.support.(i) <- g.support.(i) lor (1 lsl (p mod wb))

let remove_edge g q p =
  check_node g q;
  check_node g p;
  own g;
  g.labels.((q * g.n) + p) <- 0;
  let i = (q * g.w) + (p / wb) in
  g.support.(i) <- g.support.(i) land lnot (1 lsl (p mod wb))

let iter_edges g f =
  for q = 0 to g.n - 1 do
    for i = 0 to g.w - 1 do
      let bits = ref g.support.((q * g.w) + i) in
      let base = i * wb in
      while !bits <> 0 do
        let p = base + Bitset.lowest_bit !bits in
        f q p g.labels.((q * g.n) + p);
        bits := !bits land (!bits - 1)
      done
    done
  done

let edge_count g =
  Array.fold_left (fun acc w -> acc + Bitset.popcount w) 0 g.support

let edges g =
  let acc = ref [] in
  iter_edges g (fun q p l -> acc := (q, p, l) :: !acc);
  List.rev !acc

let check_same a b =
  if a.n <> b.n then
    invalid_arg (Printf.sprintf "Lgraph: universe mismatch (%d vs %d)" a.n b.n)

let union_nodes_into ~into src =
  check_same into src;
  own into;
  Bitset.union_into ~into:into.nodes src.nodes

(* Per set bit of [src]'s support: take the label when it is above the
   threshold and above [into]'s.  The threshold fuses Line 24's purge
   into the merge — a stale label is never copied in. *)
let merge_max_into ?(above = 0) ~into src =
  check_same into src;
  own into;
  Bitset.union_into ~into:into.nodes src.nodes;
  let n = src.n and w = src.w in
  let sl = src.labels and ss = src.support in
  let il = into.labels and is = into.support in
  for q = 0 to n - 1 do
    for i = 0 to w - 1 do
      let bits = ref ss.((q * w) + i) in
      if !bits <> 0 then begin
        let lbase = (q * n) + (i * wb) in
        let acc = ref is.((q * w) + i) in
        while !bits <> 0 do
          let j = lbase + Bitset.lowest_bit !bits in
          let l = sl.(j) in
          if l > above && l > il.(j) then begin
            il.(j) <- l;
            acc := !acc lor (!bits land - !bits)
          end;
          bits := !bits land (!bits - 1)
        done;
        is.((q * w) + i) <- !acc
      end
    done
  done

let purge g ~upto =
  own g;
  for q = 0 to g.n - 1 do
    for i = 0 to g.w - 1 do
      let s = (q * g.w) + i in
      let bits = ref g.support.(s) in
      let lbase = (q * g.n) + (i * wb) in
      while !bits <> 0 do
        let j = lbase + Bitset.lowest_bit !bits in
        if g.labels.(j) <= upto then begin
          g.labels.(j) <- 0;
          g.support.(s) <- g.support.(s) land lnot (!bits land - !bits)
        end;
        bits := !bits land (!bits - 1)
      done
    done
  done

(* Backward closure from [self] over the support words: a node joins the
   kept set once one of its out-edges enters it; passes repeat until one
   adds nothing.  Then every dropped node loses its row, and every kept
   row loses its bits outside the kept set. *)
let prune_unreachable g ~self =
  check_node g self;
  own g;
  let n = g.n and w = g.w in
  let keep = Array.make w 0 in
  let kept v = keep.(v / wb) land (1 lsl (v mod wb)) <> 0 in
  keep.(self / wb) <- 1 lsl (self mod wb);
  let meets q =
    let rec go i = i < w && (g.support.((q * w) + i) land keep.(i) <> 0 || go (i + 1)) in
    go 0
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for q = 0 to n - 1 do
      if (not (kept q)) && meets q then begin
        keep.(q / wb) <- keep.(q / wb) lor (1 lsl (q mod wb));
        changed := true
      end
    done
  done;
  for q = 0 to n - 1 do
    if not (kept q) then begin
      clear_row g q;
      Bitset.remove g.nodes q
    end
    else
      for i = 0 to w - 1 do
        let s = (q * w) + i in
        let dead = ref (g.support.(s) land lnot keep.(i)) in
        if !dead <> 0 then begin
          g.support.(s) <- g.support.(s) land keep.(i);
          let lbase = (q * n) + (i * wb) in
          while !dead <> 0 do
            g.labels.(lbase + Bitset.lowest_bit !dead) <- 0;
            dead := !dead land (!dead - 1)
          done
        end
      done
  done

let swap a b =
  check_same a b;
  let nodes = a.nodes and labels = a.labels in
  let support = a.support and shared = a.shared in
  a.nodes <- b.nodes;
  a.labels <- b.labels;
  a.support <- b.support;
  a.shared <- b.shared;
  b.nodes <- nodes;
  b.labels <- labels;
  b.support <- support;
  b.shared <- shared

let to_digraph g =
  let d = Digraph.create g.n in
  iter_edges g (fun q p _ -> Digraph.add_edge d q p);
  d

let is_strongly_connected g =
  if Bitset.cardinal g.nodes <= 1 then true
  else Scc.is_strongly_connected ~nodes:g.nodes (to_digraph g)

let fold_labels f g init =
  let acc = ref init in
  iter_edges g (fun _ _ l -> acc := f !acc l);
  !acc

let min_label g =
  fold_labels (fun acc l -> match acc with None -> Some l | Some m -> Some (min m l)) g None

let max_label g =
  fold_labels (fun acc l -> match acc with None -> Some l | Some m -> Some (max m l)) g None

let bits_for n =
  let rec go b v = if v >= n then b else go (b + 1) (v * 2) in
  go 1 2

let encoded_bits g ~label_bits =
  if label_bits < 0 then invalid_arg "Lgraph.encoded_bits: negative label_bits";
  let id_bits = bits_for g.n in
  (node_count g * id_bits) + (edge_count g * ((2 * id_bits) + label_bits))

let pp fmt g =
  Format.fprintf fmt "@[<v>nodes %a@," Bitset.pp g.nodes;
  iter_edges g (fun q p l -> Format.fprintf fmt "  %d -[%d]-> %d@," q l p);
  Format.fprintf fmt "@]"
