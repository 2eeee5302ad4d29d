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

    {b Support rows.}  Beside the dense label matrix, each row [q] keeps
    an edge-presence bitset: bit [p] is set iff [label g q p > 0].  Every
    mutator maintains it.  Label-blind queries ({!same_support},
    {!edge_count}, {!encoded_bits}) and {!prune_unreachable} work on
    those words, and every pass over edges ({!iter_edges},
    {!merge_max_into}, {!purge}, {!reset}) visits the set bits of
    non-empty rows only.

    {b Copy-on-write.}  {!copy} is O(1): it returns a second handle on
    the same buffers and marks both handles shared.  Any mutator applied
    to a shared handle first moves that handle onto private buffers
    ({!reset} allocates fresh ones instead of copying), so the two
    handles are observationally independent — exactly as with an eager
    copy.  Readers never copy.  This is what lets [Ssg_core.Approx]
    hand out its graph as the round's message without copying it. *)

open Ssg_util

type t

(** [create n ~self] is [⟨{self}, ∅⟩] over the universe [0..n-1]. *)
val create : int -> self:int -> t

(** [capacity g] is the universe size [n]. *)
val capacity : t -> int

(** [reset g ~self] re-initializes in place to [⟨{self}, ∅⟩].  Clears
    only the non-empty rows; a shared handle gets fresh buffers. *)
val reset : t -> self:int -> unit

(** [copy g] is an independent copy of [g], made copy-on-write: O(1)
    now, one buffer copy later on whichever handle is mutated first. *)
val copy : t -> t

(** [equal a b] — same universe, node set, edges and labels. *)
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

(** [label g q p] is the label of edge [q -> p], or [0] when absent. *)
val label : t -> int -> int -> int

val mem_edge : t -> int -> int -> bool

(** [set_edge g q p ~label] inserts/overwrites edge [q -> p]; adds both
    endpoints to the node set.  @raise Invalid_argument if [label <= 0]. *)
val set_edge : t -> int -> int -> label:int -> unit

(** [remove_edge g q p] deletes the edge (keeps the endpoints). *)
val remove_edge : t -> int -> int -> unit

(** [edge_count g] is the number of labelled edges: a popcount of the
    support rows. *)
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
    [~above:u] is merging [src] purged at [~upto:u], which fuses Line 24
    into the fold (with [u = r - n]) when [into] starts empty.  [src] is
    only read. *)
val merge_max_into : ?above:int -> into:t -> t -> unit

(** [purge g ~upto] removes every edge with label [<= upto] — Line 24 with
    [upto = r - n]. *)
val purge : t -> upto:int -> unit

(** [prune_unreachable g ~self] removes every node (and its incident
    edges) from which [self] is not reachable via labelled edges —
    Line 25.  [self] itself is always kept.  A backward closure over the
    support words: passes over the rows until none joins the kept set. *)
val prune_unreachable : t -> self:int -> unit

(** [is_strongly_connected g] — the labelled subgraph on [nodes g] is
    strongly connected (true when the node set is the singleton owner) —
    the decision test of Line 28. *)
val is_strongly_connected : t -> bool

(** [swap a b] exchanges the contents of [a] and [b] in O(1) — the
    double-buffering primitive for the per-round rebuild of Algorithm 1
    (Line 15 re-initializes [G_p] every round; swapping avoids copying the
    whole label matrix back).  Exchanges the copy-on-write marks with
    the buffers.  @raise Invalid_argument on universe mismatch. *)
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
    experiment (Section V's "polynomial in n" claim).  Two popcounts:
    nodes and support rows. *)
val encoded_bits : t -> label_bits:int -> int

val pp : Format.formatter -> t -> unit
