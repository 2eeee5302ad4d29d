open Ssg_util
open Ssg_graph

type t = {
  order : int;
  owner : int;
  enable_purge : bool;
  enable_prune : bool;
  mutable round : int;
  pt : Bitset.t;
  scratch : Lgraph.scratch;  (* this process's rebuild buffers *)
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
    scratch = Lgraph.scratch n;
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
  for q = 0 to t.order - 1 do
    match received q with
    | Some g ->
        if Lgraph.capacity g <> t.order then
          invalid_arg "Approx.step: received graph capacity mismatch"
    | None -> Bitset.remove t.pt q
  done;
  (* Lines 15–25: rebuild G_p into a fresh graph — the previous one may
     be out as a message.  The kernel folds the timely senders' graphs
     by per-edge max (Lines 19–23), dropping labels <= round - n on the
     way in (Line 24, fused: a purged label is never copied), sets the
     fresh timely edges (q --round--> p) (Line 17) and drops the nodes
     that cannot reach p (Line 25). *)
  let g =
    Lgraph.rebuild t.scratch ~self:t.owner ~round
      ~above:(if t.enable_purge then round - t.order else 0)
      ~prune:t.enable_prune ~timely:t.pt received
  in
  (* Strong connectivity only reads the support (nodes + edge presence),
     which the rebuild usually reproduces exactly once the run settles —
     only the labels keep rotating.  Keep the memoized certificate alive
     across support-stable rounds. *)
  if not (Lgraph.same_support t.graph g) then t.sc_cache <- None;
  t.graph <- g

let pt t = Bitset.copy t.pt
let pt_mem t q = Bitset.mem t.pt q
let iter_pt t f = Bitset.iter f t.pt
let graph t = Lgraph.copy t.graph
let graph_view t = t.graph
let is_strongly_connected t =
  match t.sc_cache with
  | Some sc -> sc
  | None ->
      let sc = Lgraph.is_strongly_connected t.graph in
      t.sc_cache <- Some sc;
      sc
