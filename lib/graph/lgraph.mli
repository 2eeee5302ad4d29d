(** Round-labelled directed graphs — the local approximation [G_p].

    Algorithm 1 has every process maintain a {e weighted} digraph whose
    edge labels are round numbers: [(q --s--> p)] records that [q] was in
    [p]'s timely neighbourhood at round [s] (Lemma 3).  This module is that
    data structure, with exactly the operations the algorithm needs:

    - re-initialization to [⟨{p}, ∅⟩] each round (Line 15),
    - recording fresh timely edges with the current round label (Line 17),
    - node-set union with received graphs (Line 18),
    - per-edge maximum of labels over received graphs (Lines 19–23),
    - purging of stale labels (Line 24),
    - pruning of nodes that cannot reach the owner (Line 25),
    - the strong-connectivity decision test (Line 28).

    Labels are strictly positive round numbers; absence is represented by
    0.  Invariant: a positive label implies both endpoints are in the node
    set.

    {b Packed labels.}  Edge presence is one bitset per row ([⌈n/63⌉]
    words), followed in the same block by n + 1 row offsets.  The labels
    of the present edges are packed in support order in a second array:
    the k-th set bit of the support rows, in row-major order, keeps its
    label at index k, and row q's labels begin at its offset.  So a
    graph costs [n·⌈n/63⌉ + n + 1 + edges] words in two blocks instead
    of an n×n matrix.  A settled [G_p] is sparse: at n = 32 it
    typically has 150–250 edges, so both blocks fit OCaml's minor heap
    (at most 256 words each) and a round's graphs die young instead of
    being allocated on the major heap.  Label-blind queries
    ({!same_support}, {!edge_count}, {!encoded_bits}, {!mem_edge}) and
    {!prune_unreachable} work on the support words; {!label} ranks
    within one row (its offset plus a popcount of that row's words);
    every pass over edges walks the set bits with a running index into
    the labels.

    {b Mutators.}  The kernels ({!rebuild}, {!merge_max_into},
    {!purge}, {!prune_unreachable}) produce labels with exactly one cell
    per edge, in freshly allocated buffers: O(n·⌈n/63⌉ + edges) each.
    {!set_edge} on a new edge and {!remove_edge} shift the labels after
    the edge in place, and an insertion into a full label array moves it
    to one twice as long, so building a graph edge by edge in support
    order (as [Codec.read] does) is amortized O(1) per edge; these spare
    cells are invisible to every query.  Relabelling an edge,
    {!add_node} and {!reset} work in place.

    {b Copy-on-write.}  {!copy} is O(1): it returns a second handle on
    the same buffers and marks both handles shared.  Any mutator applied
    to a shared handle first moves that handle onto private buffers
    ({!reset} allocates fresh ones instead of copying), so the two
    handles are observationally independent — exactly as with an eager
    copy.  Readers never copy.  This is what lets [Ssg_core.Approx]
    hand out its graph as the round's message without copying it.

    {b Rootedness mark.}  Each graph may carry a node that every node
    of the graph is known to reach along its edges.  {!create} [~self]
    and {!rebuild} [~prune:true] set it to [self]; every mutator that
    changes the graph clears it (so does {!reset}, though its result is
    rooted); {!swap}
    exchanges it with the contents and {!copy} shares it.  The mark is
    never observable: it only lets {!rebuild} skip Line 25's closure
    when that closure cannot prune anything. *)

open Ssg_util

type t

(** [create n ~self] is [⟨{self}, ∅⟩] over the universe [0..n-1]. *)
val create : int -> self:int -> t

(** [capacity g] is the universe size [n]. *)
val capacity : t -> int

(** [reset g ~self] re-initializes to [⟨{self}, ∅⟩]. *)
val reset : t -> self:int -> unit

(** [copy g] is an independent copy of [g], made copy-on-write: O(1)
    now, one buffer copy later on whichever handle is mutated first. *)
val copy : t -> t

(** [equal a b] — same universe, node set, edges and labels: compares
    the node sets, the support rows and the packed labels. *)
val equal : t -> t -> bool

(** [same_support a b] — same universe, node set and edge {e presence},
    labels ignored.  Label-blind properties (reachability, strong
    connectivity) agree on support-equal graphs, so a caller that
    refreshes labels every round can memoize them across support-stable
    rounds.  Compares the support rows: O(n²/63) word compares,
    allocation-free. *)
val same_support : t -> t -> bool

(** [mem_node g p] tests node membership. *)
val mem_node : t -> int -> bool

(** [add_node g p] inserts a node. *)
val add_node : t -> int -> unit

(** [nodes g] is a fresh bitset of the nodes. *)
val nodes : t -> Bitset.t

val node_count : t -> int

(** [label g q p] is the label of edge [q -> p], or [0] when absent.
    O(⌈n/63⌉): a rank within row [q]. *)
val label : t -> int -> int -> int

val mem_edge : t -> int -> int -> bool

(** [set_edge g q p ~label] inserts/overwrites edge [q -> p]; adds both
    endpoints to the node set.  @raise Invalid_argument if [label <= 0]. *)
val set_edge : t -> int -> int -> label:int -> unit

(** [remove_edge g q p] deletes the edge (keeps the endpoints). *)
val remove_edge : t -> int -> int -> unit

(** [edge_count g] is the number of labelled edges, O(1). *)
val edge_count : t -> int

(** [iter_edges g f] calls [f q p label] for every edge [q -> p]. *)
val iter_edges : t -> (int -> int -> int -> unit) -> unit

(** [edges g] lists [(q, p, label)] triples in lexicographic order. *)
val edges : t -> (int * int * int) list

(** [union_nodes_into ~into src] adds [src]'s nodes to [into] — Line 18. *)
val union_nodes_into : into:t -> t -> unit

(** [merge_max_into ?above ~into src] sets each edge of [into] to the
    maximum of its label and [src]'s label for that edge (treating absent
    as 0), and unions the node sets — the [R_{i,j}]/[r_max] computation of
    Lines 19–23 when folded over all received graphs.  Labels of [src]
    that are [<= above] (default [0]) are skipped: merging [src] with
    [~above:u] is merging [src] purged at [~upto:u].  [src] is only
    read.  Gives [into] new buffers; {!rebuild} is the fused form
    Algorithm 1 uses. *)
val merge_max_into : ?above:int -> into:t -> t -> unit

(** [purge g ~upto] removes every edge with label [<= upto] — Line 24 with
    [upto = r - n]. *)
val purge : t -> upto:int -> unit

(** [prune_unreachable g ~self] removes every node (and its incident
    edges) from which [self] is not reachable via labelled edges —
    Line 25.  [self] itself is always kept.  A backward closure over the
    support words: passes over the rows until none joins the kept set. *)
val prune_unreachable : t -> self:int -> unit

(** {2 The per-round rebuild} *)

(** Reusable buffers for {!rebuild}: the support and row offsets of the
    graph being built, a growable buffer for its labels, and a table of
    the senders with one label cursor each.  A scratch is plain mutable
    state: give each owner its own ([Ssg_core.Approx] keeps one per
    process), and never use one from two threads at once. *)
type scratch

(** [scratch n] is a fresh scratch for universe [n]. *)
val scratch : int -> scratch

(** [rebuild s ~self ~round ~above ~prune ~timely received] is Lines
    15–25 of Algorithm 1 as one kernel: a fresh graph equal to

    {[
      let g = create n ~self in
      Bitset.iter (fun q -> match received q with
        | Some m -> merge_max_into ~above ~into:g m | None -> ()) timely;
      Bitset.iter (fun q -> set_edge g q self ~label:round) timely;
      if prune then prune_unreachable g ~self;
      g
    ]}

    provided [round] exceeds every label of the received graphs (true
    of Algorithm 1: they are the previous round's).  It merges the
    senders' graphs row by row: each candidate edge of row q, in column
    order, takes the max of the senders' labels above [above], read
    through one cursor per sender, so no row offset or column index is
    looked up.  The labels go to [s]'s growable buffer, pruning runs on
    the support words there, and only then is the result allocated, at
    its exact size.

    The pruning closure is skipped when every received graph is marked
    rooted at its sender [q] and the merge dropped no candidate edge
    (none lacked a label above [above]): each node then reaches a
    timely sender, whose fresh edge goes to [self], so nothing would be
    pruned.  With [~prune:true] the result is marked rooted at [self].  [received q] is called once per [q] in [timely];
    the received graphs are only read — each is marked as shared, as by
    {!copy}, so that mutating one later copies it first — and [s] keeps
    no reference to them afterwards.
    @raise Invalid_argument on a universe mismatch. *)
val rebuild :
  scratch ->
  self:int ->
  round:int ->
  above:int ->
  prune:bool ->
  timely:Bitset.t ->
  (int -> t option) ->
  t

(** [is_strongly_connected g] — the labelled subgraph on [nodes g] is
    strongly connected (true when the node set has at most one node) —
    the decision test of Line 28.  Word-level: a forward and a backward
    closure from the smallest node over the support rows, both within
    the node set, each must reach every node; no {!Digraph} is built. *)
val is_strongly_connected : t -> bool

(** [swap a b] exchanges the contents of [a] and [b] in O(1) — a
    double-buffering primitive for a per-round rebuild done with the
    generic mutators.  Exchanges the copy-on-write marks with the
    buffers.  @raise Invalid_argument on universe mismatch. *)
val swap : t -> t -> unit

(** [to_digraph g] forgets labels, yielding the unlabelled edge set on the
    same universe. *)
val to_digraph : t -> Digraph.t

(** [min_label g] / [max_label g] over present edges; [None] if edgeless. *)
val min_label : t -> int option

val max_label : t -> int option

(** [encoded_bits g ~label_bits] is the size of a wire encoding of the
    graph: each node id costs [⌈log₂ n⌉] bits, each edge two ids plus
    [label_bits] for the round label.  Used for the message-bit-complexity
    experiment (Section V's "polynomial in n" claim).  A popcount of the
    nodes and the edge count. *)
val encoded_bits : t -> label_bits:int -> int

val pp : Format.formatter -> t -> unit
