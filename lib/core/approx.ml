open Ssg_util
open Ssg_graph

type t = {
  order : int;
  owner : int;
  enable_purge : bool;
  enable_prune : bool;
  mutable round : int;
  pt : Bitset.t;
  mutable graph : Lgraph.t;
      (* sealed: built fresh each round and never mutated once installed,
         so the handles [message] and [graph_view] hand out stay valid *)
  mutable sc_cache : bool option;
      (* memoized strong-connectivity certificate of [graph]; valid
         because labels refresh every round but the support goes stable
         once the skeleton does, and SC is label-blind *)
}

let create ?(enable_purge = true) ?(enable_prune = true) ~n ~self () =
  if n <= 0 then invalid_arg "Approx.create: empty system";
  if self < 0 || self >= n then invalid_arg "Approx.create: bad self";
  {
    order = n;
    owner = self;
    enable_purge;
    enable_prune;
    round = 0;
    pt = Bitset.full n;
    graph = Lgraph.create n ~self;
    sc_cache = None;
  }

let n t = t.order
let self t = t.owner
let rounds_done t = t.round
let message t = Lgraph.copy t.graph (* copy-on-write: no buffer is copied *)

let step t ~round ~received =
  if round <> t.round + 1 then
    invalid_arg
      (Printf.sprintf "Approx.step: expected round %d, got %d" (t.round + 1)
         round);
  t.round <- round;
  (* Line 9: PT_p <- PT_p ∩ {q | heard q this round}. *)
  let heard = Bitset.create t.order in
  let inboxes = Array.make t.order None in
  for q = 0 to t.order - 1 do
    match received q with
    | Some g ->
        if Lgraph.capacity g <> t.order then
          invalid_arg "Approx.step: received graph capacity mismatch";
        Bitset.add heard q;
        inboxes.(q) <- Some g
    | None -> ()
  done;
  Bitset.inter_into ~into:t.pt heard;
  (* Lines 15–24: rebuild G_p in a fresh graph — the previous one may be
     out as a message.  We fold the received graphs of timely senders
     with per-edge max (Lines 19–23), dropping labels <= round - n on the
     way in (Line 24, fused: a purged label is never copied), then
     overwrite the fresh timely edges (q --round--> p) (Line 17) —
     [round] exceeds every label in any received graph, so overwriting
     preserves the max semantics, and it is never stale. *)
  let g = Lgraph.create t.order ~self:t.owner in
  let above = if t.enable_purge then round - t.order else 0 in
  Bitset.iter
    (fun q ->
      match inboxes.(q) with
      | Some m -> Lgraph.merge_max_into ~above ~into:g m
      | None -> ())
    t.pt;
  Bitset.iter (fun q -> Lgraph.set_edge g q t.owner ~label:round) t.pt;
  (* Line 25: drop nodes that cannot reach p. *)
  if t.enable_prune then Lgraph.prune_unreachable g ~self:t.owner;
  (* Strong connectivity only reads the support (nodes + edge presence),
     which the rebuild usually reproduces exactly once the run settles —
     only the labels keep rotating.  Keep the memoized certificate alive
     across support-stable rounds. *)
  if not (Lgraph.same_support t.graph g) then t.sc_cache <- None;
  t.graph <- g

let pt t = Bitset.copy t.pt
let pt_mem t q = Bitset.mem t.pt q
let graph t = Lgraph.copy t.graph
let graph_view t = t.graph
let is_strongly_connected t =
  match t.sc_cache with
  | Some sc -> sc
  | None ->
      let sc = Lgraph.is_strongly_connected t.graph in
      t.sc_cache <- Some sc;
      sc
