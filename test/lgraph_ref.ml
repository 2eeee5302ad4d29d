(* A dense reference model of Lgraph for the differential tests: a node
   array and an n×n label array, every operation written as the plain
   loop over all cells that its specification describes. *)

open Ssg_graph

type t = { n : int; nodes : bool array; lab : int array }

let create n ~self =
  let g = { n; nodes = Array.make n false; lab = Array.make (n * n) 0 } in
  g.nodes.(self) <- true;
  g

let copy g = { g with nodes = Array.copy g.nodes; lab = Array.copy g.lab }
let label g q p = g.lab.((q * g.n) + p)

let reset g ~self =
  Array.fill g.nodes 0 g.n false;
  Array.fill g.lab 0 (g.n * g.n) 0;
  g.nodes.(self) <- true

let set_edge g q p ~label =
  g.nodes.(q) <- true;
  g.nodes.(p) <- true;
  g.lab.((q * g.n) + p) <- label

let remove_edge g q p = g.lab.((q * g.n) + p) <- 0

let merge_max_into ?(above = 0) ~into src =
  Array.iteri (fun v b -> if b then into.nodes.(v) <- true) src.nodes;
  Array.iteri
    (fun i l -> if l > 0 && l > above && l > into.lab.(i) then into.lab.(i) <- l)
    src.lab

let purge g ~upto =
  Array.iteri (fun i l -> if l > 0 && l <= upto then g.lab.(i) <- 0) g.lab

(* Nodes that reach [self] along positive labels, by repeated relaxation. *)
let prune_unreachable g ~self =
  let keep = Array.make g.n false in
  keep.(self) <- true;
  let changed = ref true in
  while !changed do
    changed := false;
    for q = 0 to g.n - 1 do
      for p = 0 to g.n - 1 do
        if keep.(p) && (not keep.(q)) && g.nodes.(q) && label g q p > 0 then begin
          keep.(q) <- true;
          changed := true
        end
      done
    done
  done;
  for v = 0 to g.n - 1 do
    if not keep.(v) then begin
      g.nodes.(v) <- false;
      for u = 0 to g.n - 1 do
        g.lab.((v * g.n) + u) <- 0;
        g.lab.((u * g.n) + v) <- 0
      done
    end
  done

let same_support a b =
  a.nodes = b.nodes && Array.for_all2 (fun x y -> x > 0 = (y > 0)) a.lab b.lab

let edge_count g = Array.fold_left (fun c l -> if l > 0 then c + 1 else c) 0 g.lab

let edges g =
  List.concat
    (List.init g.n (fun q ->
         List.filter_map
           (fun p -> if label g q p > 0 then Some (q, p, label g q p) else None)
           (List.init g.n Fun.id)))

(* [to_lgraph g ~self] rebuilds [g] through the public Lgraph setters;
   [self] must be a node of [g]. *)
let to_lgraph g ~self =
  let l = Lgraph.create g.n ~self in
  Array.iteri (fun v b -> if b then Lgraph.add_node l v) g.nodes;
  List.iter (fun (q, p, label) -> Lgraph.set_edge l q p ~label) (edges g);
  l

(* [of_lgraph l] is the model of [l]: its nodes and labels, cell by
   cell. *)
let of_lgraph l =
  let n = Lgraph.capacity l in
  let g = { n; nodes = Array.init n (Lgraph.mem_node l); lab = Array.make (n * n) 0 } in
  Lgraph.iter_edges l (fun q p label -> g.lab.((q * n) + p) <- label);
  g

(* [agrees l g] — same universe, nodes, labels cell by cell, and edges
   as enumerated from [l]'s support rows: the support invariant (bit set
   iff label positive) seen from outside. *)
let agrees l g =
  Lgraph.capacity l = g.n
  && List.for_all
       (fun v -> Lgraph.mem_node l v = g.nodes.(v))
       (List.init g.n Fun.id)
  && (let ok = ref true in
      for q = 0 to g.n - 1 do
        for p = 0 to g.n - 1 do
          if Lgraph.label l q p <> label g q p then ok := false
        done
      done;
      !ok)
  && Lgraph.edges l = edges g
  && Lgraph.edge_count l = edge_count g
