open Ssg_util

(* Packed labels.  [rows] holds the support and the row offsets:

   - one edge-presence bitset per row, [w] words each: bit
     (p mod word_bits) of rows.(q*w + p / word_bits) is edge q -> p;
   - then n + 1 offsets: rows.(n*w + q) is the index in [labels] of row
     q's first label, and rows.(n*w + n) is the edge count.

   [labels] holds one cell per edge, in support order: the k-th set bit
   of the support, rows first, then columns, keeps its label at index k.
   The kernels allocate it at exactly that size; only [set_edge] and
   [remove_edge] leave spare cells past the edge count (see [resize]).
   So a graph costs n·w + n + 1 + edges words in two blocks, not n², and
   every pass over edges walks set bits with a running label index.
   The node set is tracked separately because Algorithm 1 distinguishes
   isolated nodes (members of V_p without edges) from absent ones.

   [shared] is the copy-on-write mark.  [copy] returns a second record
   over the same buffers and marks both; a mutator on a shared record
   first moves it onto private buffers, so neither handle ever observes
   the other's writes.

   [root] is the rootedness mark: a node r such that every node of the
   graph reaches r along its edges, or -1 when none is known.  [create]
   and a pruning [rebuild] set it to [self]; every mutator clears it
   ([own], [install], [reset]), [swap] exchanges it with the buffers and
   [copy] shares it with them.  [rebuild] reads it to skip Line 25's
   closure. *)
type t = {
  n : int;
  w : int;
  mutable nodes : Bitset.t;
  mutable rows : int array;
  mutable labels : int array;
  mutable shared : bool;
  mutable root : int;
}

(* [Bitset.word_bits], stated as [Sys.int_size] so that it is a
   compile-time constant here: the default (dev) build passes -opaque,
   which hides other modules' values from the optimizer, and [/ wb] and
   [mod wb] on every bit test would otherwise be divisions. *)
let wb = Sys.int_size

let bit p = 1 lsl (p mod wb)
let words_for n = ((n - 1) / wb) + 1

(* Where the row offsets begin in [rows], and its length. *)
let obase ~n ~w = n * w
let rows_len ~n ~w = (n * w) + n + 1

let edge_count g = g.rows.(obase ~n:g.n ~w:g.w + g.n)

let check_node g i =
  if i < 0 || i >= g.n then
    invalid_arg (Printf.sprintf "Lgraph: node %d out of range [0, %d)" i g.n)

let create n ~self =
  if n <= 0 then invalid_arg "Lgraph.create: empty universe";
  let w = words_for n in
  let g =
    {
      n;
      w;
      nodes = Bitset.create n;
      rows = Array.make (rows_len ~n ~w) 0;
      labels = [||];
      shared = false;
      root = self;
    }
  in
  check_node g self;
  Bitset.add g.nodes self;
  g

let capacity g = g.n

(* Ready [g] for a mutation: the mutation may break the rootedness, and
   a shared record moves onto private copies of its buffers. *)
let own g =
  g.root <- -1;
  if g.shared then begin
    g.nodes <- Bitset.copy g.nodes;
    g.rows <- Array.copy g.rows;
    g.labels <- Array.copy g.labels;
    g.shared <- false
  end

(* Give [g] freshly built buffers; the node set is kept, copied if
   shared. *)
let install g (rows, labels) =
  if g.shared then g.nodes <- Bitset.copy g.nodes;
  g.rows <- rows;
  g.labels <- labels;
  g.shared <- false;
  g.root <- -1

let reset g ~self =
  check_node g self;
  if g.shared then begin
    (* the shared buffers stay with the other handle; nothing to copy *)
    g.nodes <- Bitset.create g.n;
    g.rows <- Array.make (rows_len ~n:g.n ~w:g.w) 0;
    g.shared <- false
  end
  else begin
    Bitset.clear g.nodes;
    Array.fill g.rows 0 (Array.length g.rows) 0
  end;
  g.labels <- [||];
  g.root <- -1;
  Bitset.add g.nodes self

let copy g =
  g.shared <- true;
  { g with shared = true }

(* The offsets are a function of the support, so comparing [rows]
   compares the supports; then the labels, up to the edge count. *)
let equal a b =
  a.n = b.n
  && Bitset.equal a.nodes b.nodes
  && a.rows = b.rows
  &&
  let e = edge_count a in
  let rec go k = k >= e || (a.labels.(k) = b.labels.(k) && go (k + 1)) in
  go 0

(* Same node set and same edge-presence pattern, labels ignored: a
   compare of the support words, no allocation — the key to memoizing
   label-blind derivations (strong connectivity) across rounds that only
   refresh labels. *)
let same_support a b =
  a.n = b.n
  && Bitset.equal a.nodes b.nodes
  &&
  let len = a.n * a.w in
  let rec go i = i >= len || (a.rows.(i) = b.rows.(i) && go (i + 1)) in
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
let has g q p = g.rows.((q * g.w) + (p / wb)) land bit p <> 0

(* Index in [labels] of edge q -> p (present or not): row q's offset
   plus the set bits before column p — a rank over row q's words only. *)
let index g q p =
  let base = q * g.w and i = p / wb in
  let k = ref g.rows.(obase ~n:g.n ~w:g.w + q) in
  for j = 0 to i - 1 do
    k := !k + Bitset.popcount g.rows.(base + j)
  done;
  !k + Bitset.popcount (g.rows.(base + i) land (bit p - 1))

let label g q p =
  check_node g q;
  check_node g p;
  if has g q p then g.labels.(index g q p) else 0

let mem_edge g q p =
  check_node g q;
  check_node g p;
  has g q p

(* Insert a label at [index g q p] ([d = 1]) or remove the one there
   ([d = -1]): the labels after it shift in place, edge q -> p's support
   bit flips and the offsets of the rows after [q] move by [d].  An
   insertion into a full array first moves the labels to one twice as
   long, so a graph built edge by edge in support order ([Codec.read])
   costs amortized O(1) per edge.  These spare cells past [edge_count]
   are the only ones a graph can have. *)
let resize g q p d label =
  own g;
  let k = index g q p and e = edge_count g in
  if d > 0 then begin
    if e = Array.length g.labels then begin
      let labels = Array.make (max 4 (2 * e)) 0 in
      Array.blit g.labels 0 labels 0 e;
      g.labels <- labels
    end;
    Array.blit g.labels k g.labels (k + 1) (e - k);
    g.labels.(k) <- label
  end
  else Array.blit g.labels (k + 1) g.labels k (e - k - 1);
  let i = (q * g.w) + (p / wb) and ob = obase ~n:g.n ~w:g.w in
  g.rows.(i) <- g.rows.(i) lxor bit p;
  for r = q + 1 to g.n do
    g.rows.(ob + r) <- g.rows.(ob + r) + d
  done

let set_edge g q p ~label =
  check_node g q;
  check_node g p;
  if label <= 0 then invalid_arg "Lgraph.set_edge: label must be positive";
  if has g q p then begin
    own g;
    g.labels.(index g q p) <- label
  end
  else resize g q p 1 label;
  Bitset.add g.nodes q;
  Bitset.add g.nodes p

let remove_edge g q p =
  check_node g q;
  check_node g p;
  if has g q p then resize g q p (-1) 0

let iter_edges g f =
  let k = ref 0 in
  for q = 0 to g.n - 1 do
    for i = 0 to g.w - 1 do
      let bits = ref g.rows.((q * g.w) + i) in
      while !bits <> 0 do
        f q ((i * wb) + Bitset.lowest_bit !bits) g.labels.(!k);
        incr k;
        bits := !bits land (!bits - 1)
      done
    done
  done

let edges g =
  let acc = ref [] in
  iter_edges g (fun q p l -> acc := (q, p, l) :: !acc);
  List.rev !acc

let check_same_n n g =
  if g.n <> n then
    invalid_arg (Printf.sprintf "Lgraph: universe mismatch (%d vs %d)" n g.n)

let check_same a b = check_same_n a.n b

let union_nodes_into ~into src =
  check_same into src;
  own into;
  Bitset.union_into ~into:into.nodes src.nodes

(* The node set as [w] words. *)
let node_words ~w nodes = Array.init w (Bitset.word nodes)

let popcount_words a = Array.fold_left (fun c x -> c + Bitset.popcount x) 0 a

(* Backward closure from [self] over the support words of [rows],
   within the nodes of [mask] ([w] words): a node of [mask] joins the
   kept set once one of its out-edges enters it; passes repeat until
   one adds nothing.  The result is a [w]-word bitset. *)
let closure ~n ~w rows ~mask ~self =
  let keep = Array.make w 0 in
  keep.(self / wb) <- bit self;
  let changed = ref true in
  while !changed do
    changed := false;
    for q = 0 to n - 1 do
      let qi = q / wb in
      if (mask.(qi) land lnot keep.(qi)) land bit q <> 0 then begin
        let i = ref 0 in
        while !i < w && rows.((q * w) + !i) land keep.(!i) = 0 do
          incr i
        done;
        if !i < w then begin
          keep.(qi) <- keep.(qi) lor bit q;
          changed := true
        end
      end
    done
  done;
  keep

let kept keep v = keep.(v / wb) land bit v <> 0

(* Drop the nodes outside [keep] from [nodes]; true iff some was. *)
let restrict nodes keep =
  let dropped = ref false in
  for v = 0 to Bitset.capacity nodes - 1 do
    if (not (kept keep v)) && Bitset.mem nodes v then begin
      Bitset.remove nodes v;
      dropped := true
    end
  done;
  !dropped

(* Exact buffers for the edges of ([rows], [labels]) whose both
   endpoints are in [keep]: the rows outside [keep] are emptied and every
   kept row is masked with [keep]. *)
let restrict_edges ~n ~w rows labels keep =
  let ob = obase ~n ~w in
  let r = Array.make (rows_len ~n ~w) 0 in
  let count = ref 0 in
  for q = 0 to n - 1 do
    r.(ob + q) <- !count;
    if kept keep q then
      for i = 0 to w - 1 do
        let s = rows.((q * w) + i) land keep.(i) in
        r.((q * w) + i) <- s;
        count := !count + Bitset.popcount s
      done
  done;
  r.(ob + n) <- !count;
  let l = Array.make !count 0 in
  for q = 0 to n - 1 do
    if r.(ob + q) < r.(ob + q + 1) then begin
      let k = ref r.(ob + q) and from = ref rows.(ob + q) in
      for i = 0 to w - 1 do
        let bits = ref rows.((q * w) + i) and mask = keep.(i) in
        while !bits <> 0 do
          let low_bit = !bits land - !bits in
          if mask land low_bit <> 0 then begin
            l.(!k) <- labels.(!from);
            incr k
          end;
          incr from;
          bits := !bits lxor low_bit
        done
      done
    end
  done;
  (r, l)

(* Line 25 on (rows, labels) with node set [nodes]: the nodes that
   cannot reach [self] leave [nodes], and their rows and columns leave
   the edges.  [Some] restricted buffers when a node left, [None] when
   none did.  With [self] a node, the kept set is a subset of [nodes],
   so equal counts settle the common case without a pass over them. *)
let pruned ~n ~w rows labels nodes ~self =
  let keep = closure ~n ~w rows ~mask:(node_words ~w nodes) ~self in
  let count = popcount_words keep in
  if Bitset.mem nodes self && count = Bitset.cardinal nodes then None
  else if restrict nodes keep then Some (restrict_edges ~n ~w rows labels keep)
  else None

(* The builder behind the merging kernels: the fold of Lines 19–24 as a
   row-by-row merge of packed sources.  [hdr] is laid out as a graph's
   [rows] (support, then offsets) and [buf] collects the labels,
   growing as they are emitted.  Every source is a graph's [rows] and
   [labels], a threshold (its labels [<= above] are skipped — Line 24's
   purge, fused) and a cursor: the index of its next label.  Rows are
   merged in order, 0 to n-1, and within a row every candidate edge in
   column order, so each source's labels are consumed in exactly their
   packed order and no row offset or column index is ever looked up. *)
type builder = {
  bn : int;
  bw : int;
  hdr : int array;
  mutable buf : int array;
  mutable len : int;  (* labels emitted so far *)
  mutable m : int;  (* sources added *)
  mutable dropped : bool;  (* some candidate edge had no label to keep *)
  srows : int array array;
  slabels : int array array;
  above : int array;
  cur : int array;
  word : int array;  (* each source's support word in hand *)
}

(* [labels] is the initial size of [buf]; it grows when a row might not
   fit. *)
let builder n ~sources ~labels =
  let w = words_for n in
  {
    bn = n;
    bw = w;
    hdr = Array.make (rows_len ~n ~w) 0;
    buf = Array.make (max n labels) 0;
    len = 0;
    m = 0;
    dropped = false;
    srows = Array.make sources [||];
    slabels = Array.make sources [||];
    above = Array.make sources 0;
    cur = Array.make sources 0;
    word = Array.make sources 0;
  }

let add_source b g ~above =
  check_same_n b.bn g;
  b.srows.(b.m) <- g.rows;
  b.slabels.(b.m) <- g.labels;
  b.above.(b.m) <- above;
  b.cur.(b.m) <- 0;
  b.m <- b.m + 1

(* Forget the sources, so the builder holds no reference to them. *)
let release b =
  Array.fill b.srows 0 b.m [||];
  Array.fill b.slabels 0 b.m [||];
  b.m <- 0;
  b.len <- 0;
  b.dropped <- false

(* Row [q] of the result: every edge of a source's row q is a candidate;
   its label is the max over the sources' labels above their thresholds,
   and it is dropped when there is none.  When [fresh > 0], edge
   q -> [col] gets label [fresh] whatever the sources say.  The inner
   loops index with [unsafe_get]/[unsafe_set]: source indices are below
   [m], support words below [n*w], and each cursor stays within its
   source's labels because it advances once per set bit of that
   source's support. *)
let merge_row b q ~col ~fresh =
  let n = b.bn and w = b.bw and m = b.m in
  if Array.length b.buf < b.len + n then begin
    let buf = Array.make (max (2 * Array.length b.buf) (b.len + n)) 0 in
    Array.blit b.buf 0 buf 0 b.len;
    b.buf <- buf
  end;
  let buf = b.buf and hdr = b.hdr and word = b.word and cur = b.cur in
  let k = ref b.len in
  hdr.(obase ~n ~w + q) <- !k;
  for i = 0 to w - 1 do
    let fb = if fresh > 0 && col / wb = i then bit col else 0 in
    let cand = ref fb in
    for j = 0 to m - 1 do
      let x = Array.unsafe_get (Array.unsafe_get b.srows j) ((q * w) + i) in
      Array.unsafe_set word j x;
      cand := !cand lor x
    done;
    let out = ref !cand and rest = ref !cand in
    while !rest <> 0 do
      let low_bit = !rest land - !rest in
      let best = ref 0 in
      for j = 0 to m - 1 do
        if Array.unsafe_get word j land low_bit <> 0 then begin
          let c = Array.unsafe_get cur j in
          let l = Array.unsafe_get (Array.unsafe_get b.slabels j) c in
          Array.unsafe_set cur j (c + 1);
          if l > Array.unsafe_get b.above j && l > !best then best := l
        end
      done;
      if low_bit = fb then best := fresh;
      if !best > 0 then begin
        Array.unsafe_set buf !k !best;
        incr k
      end
      else begin
        out := !out lxor low_bit;
        b.dropped <- true
      end;
      rest := !rest lxor low_bit
    done;
    hdr.((q * w) + i) <- !out
  done;
  hdr.(obase ~n ~w + q + 1) <- !k;
  b.len <- !k

(* Merge every row of the sources added, without a fresh edge. *)
let merge_rows b =
  for q = 0 to b.bn - 1 do
    merge_row b q ~col:0 ~fresh:0
  done

(* The built graph's buffers: copies of the builder's, at exact size,
   or for a one-shot builder ([~reuse:true]) its own header. *)
let sealed ?(reuse = false) b =
  ((if reuse then b.hdr else Array.copy b.hdr), Array.sub b.buf 0 b.len)

let merge_max_into ?(above = 0) ~into src =
  check_same into src;
  let labels = edge_count into + edge_count src + into.n in
  let b = builder into.n ~sources:2 ~labels in
  add_source b into ~above:0;
  add_source b src ~above;
  merge_rows b;
  install into (sealed ~reuse:true b);
  Bitset.union_into ~into:into.nodes src.nodes

let purge g ~upto =
  let b = builder g.n ~sources:1 ~labels:(edge_count g + g.n) in
  add_source b g ~above:upto;
  merge_rows b;
  install g (sealed ~reuse:true b)

let prune_unreachable g ~self =
  check_node g self;
  let nodes = Bitset.copy g.nodes in
  match pruned ~n:g.n ~w:g.w g.rows g.labels nodes ~self with
  | Some bufs ->
      install g bufs;
      g.nodes <- nodes
  | None -> ()

type scratch = builder

let scratch n = builder n ~sources:n ~labels:n

(* Lines 15–25 in one pass over rows: the timely senders' graphs are the
   sources, and row q gets the fresh edge q --round--> self when q is
   timely ([round] exceeds every label of a received graph, so the
   overwrite keeps the max semantics).  Pruning runs on the builder's
   support, so the result is allocated once, at its exact size.

   The closure is skipped when every sender's graph is rooted at that
   sender and the merge dropped no candidate edge: every edge of every
   sender is then in the result, so each node of a sender's graph
   reaches the sender, a timely node, whose fresh edge goes to [self]. *)
let rebuild b ~self ~round ~above ~prune ~timely received =
  let n = b.bn in
  if self < 0 || self >= n then
    invalid_arg (Printf.sprintf "Lgraph: node %d out of range [0, %d)" self n);
  release b (* in case an earlier rebuild raised *);
  let nodes = Bitset.create n in
  Bitset.add nodes self;
  Bitset.union_into ~into:nodes timely;
  let rooted = ref true in
  Bitset.iter
    (fun q ->
      match received q with
      | Some g ->
          (* marked shared, so that a later [received] call that mutates
             [g] copies it first: the merge's unchecked reads rely on the
             captured buffers staying as they are, and the mark read
             here describes them *)
          g.shared <- true;
          if g.root <> q then rooted := false;
          add_source b g ~above;
          Bitset.union_into ~into:nodes g.nodes
      | None -> ())
    timely;
  for q = 0 to n - 1 do
    merge_row b q ~col:self ~fresh:(if Bitset.mem timely q then round else 0)
  done;
  let must_prune = prune && (b.dropped || not !rooted) in
  let rows, labels =
    match if must_prune then pruned ~n ~w:b.bw b.hdr b.buf nodes ~self else None with
    | Some bufs -> bufs
    | None -> sealed b
  in
  release b;
  {
    n;
    w = b.bw;
    nodes;
    rows;
    labels;
    shared = false;
    root = (if prune then self else -1);
  }

let swap a b =
  check_same a b;
  let nodes = a.nodes and rows = a.rows in
  let labels = a.labels and shared = a.shared and root = a.root in
  a.nodes <- b.nodes;
  a.rows <- b.rows;
  a.labels <- b.labels;
  a.shared <- b.shared;
  a.root <- b.root;
  b.nodes <- nodes;
  b.rows <- rows;
  b.labels <- labels;
  b.shared <- shared;
  b.root <- root

let to_digraph g =
  let d = Digraph.create g.n in
  iter_edges g (fun q p _ -> Digraph.add_edge d q p);
  d

(* Forward closure from [src] over the support words of [rows], within
   the nodes of [mask]: a worklist of reached nodes whose rows are yet
   to be read, one or-in of a row per node. *)
let forward ~w rows ~mask ~src =
  let reach = Array.make w 0 and todo = Array.make w 0 in
  reach.(src / wb) <- bit src;
  todo.(src / wb) <- bit src;
  let i = ref 0 in
  while !i < w do
    let t = todo.(!i) in
    if t = 0 then incr i
    else begin
      let low_bit = t land -t in
      todo.(!i) <- t lxor low_bit;
      let q = (!i * wb) + Bitset.lowest_bit low_bit in
      for j = 0 to w - 1 do
        let fresh = rows.((q * w) + j) land mask.(j) land lnot reach.(j) in
        if fresh <> 0 then begin
          reach.(j) <- reach.(j) lor fresh;
          todo.(j) <- todo.(j) lor fresh;
          if j < !i then i := j
        end
      done
    end
  done;
  reach

(* Strongly connected iff the smallest node reaches, and is reached
   from, every node — both closures within the node set. *)
let is_strongly_connected g =
  let count = Bitset.cardinal g.nodes in
  count <= 1
  ||
  let src = Bitset.min_elt g.nodes and mask = node_words ~w:g.w g.nodes in
  popcount_words (forward ~w:g.w g.rows ~mask ~src) = count
  && popcount_words (closure ~n:g.n ~w:g.w g.rows ~mask ~self:src) = count

let fold_labels f g init =
  let acc = ref init in
  for k = 0 to edge_count g - 1 do
    acc := f !acc g.labels.(k)
  done;
  !acc

let min_label g =
  if edge_count g = 0 then None else Some (fold_labels min g max_int)

let max_label g =
  if edge_count g = 0 then None else Some (fold_labels max g 0)

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
