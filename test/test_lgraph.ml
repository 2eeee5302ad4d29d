(* Tests for the round-labelled approximation graph. *)

open Ssg_util
open Ssg_graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_create () =
  let g = Lgraph.create 5 ~self:2 in
  check_int "capacity" 5 (Lgraph.capacity g);
  check "owner present" true (Lgraph.mem_node g 2);
  check_int "one node" 1 (Lgraph.node_count g);
  check_int "no edges" 0 (Lgraph.edge_count g);
  check "strongly connected (singleton)" true (Lgraph.is_strongly_connected g)

let test_set_edge () =
  let g = Lgraph.create 4 ~self:0 in
  Lgraph.set_edge g 1 0 ~label:3;
  check "edge present" true (Lgraph.mem_edge g 1 0);
  check_int "label" 3 (Lgraph.label g 1 0);
  check "endpoints added" true (Lgraph.mem_node g 1);
  check_int "absent label is 0" 0 (Lgraph.label g 0 1);
  Lgraph.set_edge g 1 0 ~label:5;
  check_int "overwrite" 5 (Lgraph.label g 1 0);
  Alcotest.check_raises "bad label"
    (Invalid_argument "Lgraph.set_edge: label must be positive") (fun () ->
      Lgraph.set_edge g 1 2 ~label:0)

let test_remove_edge () =
  let g = Lgraph.create 4 ~self:0 in
  Lgraph.set_edge g 1 2 ~label:1;
  Lgraph.remove_edge g 1 2;
  check "gone" false (Lgraph.mem_edge g 1 2);
  check "nodes kept" true (Lgraph.mem_node g 1 && Lgraph.mem_node g 2)

let test_reset () =
  let g = Lgraph.create 4 ~self:0 in
  Lgraph.set_edge g 1 2 ~label:1;
  Lgraph.reset g ~self:3;
  check_int "one node" 1 (Lgraph.node_count g);
  check "new owner" true (Lgraph.mem_node g 3);
  check_int "no edges" 0 (Lgraph.edge_count g)

let test_edges_listing () =
  let g = Lgraph.create 3 ~self:0 in
  Lgraph.set_edge g 2 1 ~label:4;
  Lgraph.set_edge g 0 1 ~label:2;
  Alcotest.(check (list (triple int int int))) "edges" [ (0, 1, 2); (2, 1, 4) ]
    (Lgraph.edges g)

let test_merge_max () =
  let a = Lgraph.create 4 ~self:0 in
  Lgraph.set_edge a 1 0 ~label:2;
  Lgraph.set_edge a 2 0 ~label:5;
  let b = Lgraph.create 4 ~self:1 in
  Lgraph.set_edge b 1 0 ~label:4;
  Lgraph.set_edge b 3 1 ~label:1;
  Lgraph.merge_max_into ~into:a b;
  check_int "max taken" 4 (Lgraph.label a 1 0);
  check_int "kept larger" 5 (Lgraph.label a 2 0);
  check_int "new edge" 1 (Lgraph.label a 3 1);
  check "nodes unioned" true (Lgraph.mem_node a 3)

let test_purge () =
  let g = Lgraph.create 4 ~self:0 in
  Lgraph.set_edge g 1 0 ~label:2;
  Lgraph.set_edge g 2 0 ~label:5;
  Lgraph.purge g ~upto:2;
  check "old gone" false (Lgraph.mem_edge g 1 0);
  check "new kept" true (Lgraph.mem_edge g 2 0);
  check "nodes kept" true (Lgraph.mem_node g 1)

let test_prune_unreachable () =
  let g = Lgraph.create 6 ~self:0 in
  (* 1 -> 0 (kept), 2 -> 1 (kept, reaches 0 via 1), 3 -> 4 (dropped, no
     path to 0), 0 -> 5 (5 dropped: 5 cannot reach 0). *)
  Lgraph.set_edge g 1 0 ~label:1;
  Lgraph.set_edge g 2 1 ~label:1;
  Lgraph.set_edge g 3 4 ~label:1;
  Lgraph.set_edge g 0 5 ~label:1;
  Lgraph.prune_unreachable g ~self:0;
  Alcotest.(check (list int)) "kept nodes" [ 0; 1; 2 ]
    (Bitset.elements (Lgraph.nodes g));
  check "edge 3->4 gone" false (Lgraph.mem_edge g 3 4);
  check "edge 0->5 gone" false (Lgraph.mem_edge g 0 5);
  check "edge 2->1 kept" true (Lgraph.mem_edge g 2 1)

let test_prune_keeps_owner () =
  let g = Lgraph.create 3 ~self:1 in
  Lgraph.add_node g 0;
  Lgraph.prune_unreachable g ~self:1;
  Alcotest.(check (list int)) "only owner" [ 1 ]
    (Bitset.elements (Lgraph.nodes g))

let test_strong_connectivity () =
  let g = Lgraph.create 4 ~self:0 in
  Lgraph.set_edge g 0 1 ~label:1;
  check "not sc" false (Lgraph.is_strongly_connected g);
  Lgraph.set_edge g 1 0 ~label:2;
  check "sc pair" true (Lgraph.is_strongly_connected g);
  Lgraph.add_node g 3;
  check "isolated node breaks sc" false (Lgraph.is_strongly_connected g)

let test_to_digraph () =
  let g = Lgraph.create 3 ~self:0 in
  Lgraph.set_edge g 1 2 ~label:7;
  let d = Lgraph.to_digraph g in
  check "edge carried" true (Digraph.mem_edge d 1 2);
  check_int "one edge" 1 (Digraph.edge_count d)

let test_min_max_label () =
  let g = Lgraph.create 3 ~self:0 in
  check "empty min" true (Lgraph.min_label g = None);
  Lgraph.set_edge g 0 1 ~label:3;
  Lgraph.set_edge g 1 2 ~label:9;
  Alcotest.(check (option int)) "min" (Some 3) (Lgraph.min_label g);
  Alcotest.(check (option int)) "max" (Some 9) (Lgraph.max_label g)

let test_encoded_bits () =
  let g = Lgraph.create 8 ~self:0 in
  (* id_bits for n=8 is 3 *)
  check_int "one node" 3 (Lgraph.encoded_bits g ~label_bits:5);
  Lgraph.set_edge g 1 0 ~label:1;
  (* 2 nodes * 3 + 1 edge * (6 + 5) *)
  check_int "node + edge" 17 (Lgraph.encoded_bits g ~label_bits:5)

let test_swap () =
  let a = Lgraph.create 3 ~self:0 in
  Lgraph.set_edge a 1 0 ~label:2;
  let b = Lgraph.create 3 ~self:2 in
  Lgraph.set_edge b 0 2 ~label:7;
  let a0 = Lgraph.copy a and b0 = Lgraph.copy b in
  Lgraph.swap a b;
  check "a has b's content" true (Lgraph.equal a b0);
  check "b has a's content" true (Lgraph.equal b a0);
  Lgraph.swap a b;
  check "swap is involutive" true (Lgraph.equal a a0 && Lgraph.equal b b0);
  check "mismatch rejected" true
    (try Lgraph.swap a (Lgraph.create 4 ~self:0); false
     with Invalid_argument _ -> true)

let test_copy_equal () =
  let g = Lgraph.create 3 ~self:0 in
  Lgraph.set_edge g 1 0 ~label:2;
  let h = Lgraph.copy g in
  check "equal" true (Lgraph.equal g h);
  Lgraph.set_edge h 2 0 ~label:1;
  check "independent" false (Lgraph.equal g h);
  let r = Lgraph.copy g in
  Lgraph.set_edge r 1 0 ~label:3;
  check "labels compared" false (Lgraph.equal g r)

(* Property: merge_max_into is commutative and idempotent on label level. *)

let gen_lgraph =
  QCheck2.Gen.(
    let n = 6 in
    let edge = triple (int_bound (n - 1)) (int_bound (n - 1)) (int_range 1 9) in
    let+ es = list_size (int_bound 15) edge in
    let g = Lgraph.create n ~self:0 in
    List.iter (fun (q, p, l) -> Lgraph.set_edge g q p ~label:l) es;
    g)

let props =
  [
    QCheck2.Test.make ~count:200 ~name:"merge_max commutative"
      (QCheck2.Gen.pair gen_lgraph gen_lgraph) (fun (a, b) ->
        let ab = Lgraph.copy a and ba = Lgraph.copy b in
        Lgraph.merge_max_into ~into:ab b;
        Lgraph.merge_max_into ~into:ba a;
        Lgraph.equal ab ba);
    QCheck2.Test.make ~count:200 ~name:"merge_max idempotent" gen_lgraph
      (fun a ->
        let aa = Lgraph.copy a in
        Lgraph.merge_max_into ~into:aa a;
        Lgraph.equal aa a);
    QCheck2.Test.make ~count:200 ~name:"purge removes exactly stale labels"
      (QCheck2.Gen.pair gen_lgraph (QCheck2.Gen.int_range 0 10))
      (fun (g, upto) ->
        let before = Lgraph.edges g in
        Lgraph.purge g ~upto;
        let after = Lgraph.edges g in
        List.for_all (fun (_, _, l) -> l > upto) after
        && List.length after
           = List.length (List.filter (fun (_, _, l) -> l > upto) before));
    QCheck2.Test.make ~count:200
      ~name:"prune keeps exactly the backward closure" gen_lgraph (fun g ->
        let d = Lgraph.to_digraph g in
        let expect = Reach.reaches d 0 in
        (* owner 0 is always in the graph *)
        Lgraph.prune_unreachable g ~self:0;
        let kept = Lgraph.nodes g in
        (* every kept node reaches 0 in the original graph *)
        Bitset.for_all (fun v -> Bitset.mem expect v) kept
        && Bitset.for_all
             (fun v -> not (Bitset.mem kept v) || v = 0)
             (Bitset.diff (Bitset.full 6) expect));
  ]

(* Differential test of the kernels against the dense reference
   ([Lgraph_ref]).  Three graph slots over one universe n ∈ 1..70 (so
   support rows span two 63-bit words), a random program of operations
   applied to both sides, and after every operation each slot must agree
   with its reference: nodes, every label, and the edges enumerated from
   the support rows.  [Copy] aliases buffers copy-on-write, so later
   mutations of either slot also check that copies stay independent.

   [Rebuild] runs the fused per-round kernel into a slot, with one
   scratch reused by the whole program: its timely senders map to slots
   (or to no received graph), and the reference is the unfused dense
   sequence — fresh graph, merge_max_into ~above per received graph,
   set_edge of the fresh edges, prune_unreachable.  The same sequence
   run with the packed mutators must give an [Lgraph.equal] graph.  The
   round is one more than every label present (plus a random margin),
   as in Algorithm 1; [above] is 0, a fixed value, or just below the
   round, so that almost every label is stale. *)

type op =
  | Fill of int * (int * int * int) list
  | Remove of int * int * int
  | Merge of int * int * int option
  | Purge of int * int
  | Prune of int * int
  | Reset of int * int
  | Swap of int * int
  | Copy of int * int
  | Same of int * int
  | Rebuild of rebuild

and rebuild = {
  dst : int;
  owner : int;
  margin : int;  (* the round is the largest label present plus 1 + margin *)
  above : [ `Zero | `Fixed of int | `Below_round of int ];
  prune : bool;
  timely : (int * int option) list;  (* sender, and the slot it sent *)
}

let gen_rebuild n node slot =
  QCheck2.Gen.(
    let* dst = slot and* owner = node and* margin = int_bound 3 in
    let* above =
      oneof
        [
          return `Zero;
          map (fun a -> `Fixed a) (int_range (-3) 12);
          map (fun d -> `Below_round d) (int_range 1 4);
        ]
    and* prune = bool in
    let sender = pair node (opt ~ratio:0.8 slot) in
    let+ timely =
      frequency
        [
          (1, return []);
          (1, map (fun s -> [ (owner, s) ]) (opt slot));
          (4, list_size (int_bound (min n 12)) sender);
        ]
    in
    let timely = List.sort_uniq (fun (a, _) (b, _) -> compare a b) timely in
    { dst; owner; margin; above; prune; timely })

let gen_program =
  QCheck2.Gen.(
    let* n = oneof [ int_range 1 8; int_range 1 70; int_range 60 70 ] in
    let node = int_bound (n - 1) and slot = int_bound 2 in
    let edge = triple node node (int_range 1 12) in
    let op =
      frequency
        [
          (4, map2 (fun s es -> Fill (s, es)) slot (list_size (int_bound (2 * n)) edge));
          (1, map3 (fun s q p -> Remove (s, q, p)) slot node node);
          (4, map3 (fun a b t -> Merge (a, b, t)) slot slot (opt (int_range (-3) 12)));
          (2, map2 (fun s u -> Purge (s, u)) slot (int_range 0 12));
          (2, map2 (fun s v -> Prune (s, v)) slot node);
          (1, map2 (fun s v -> Reset (s, v)) slot node);
          (1, map2 (fun a b -> Swap (a, b)) slot slot);
          (2, map2 (fun a b -> Copy (a, b)) slot slot);
          (2, map2 (fun a b -> Same (a, b)) slot slot);
          (4, map (fun r -> Rebuild r) (gen_rebuild n node slot));
        ]
    in
    pair (return n) (list_size (int_range 1 25) op))

(* [rebuild] on both sides; true iff the fused kernel equals the same
   sequence run with the packed mutators. *)
let run_rebuild n scratch real model r =
  let round =
    1 + r.margin
    + Array.fold_left
        (fun acc l -> max acc (Option.value (Lgraph.max_label l) ~default:0))
        0 real
  in
  let above =
    match r.above with `Zero -> 0 | `Fixed a -> a | `Below_round d -> round - d
  in
  let timely = Bitset.of_list n (List.map fst r.timely) in
  let sent q = Option.join (List.assoc_opt q r.timely) in
  let received q = Option.map (fun s -> real.(s)) (sent q) in
  let fused =
    Lgraph.rebuild scratch ~self:r.owner ~round ~above ~prune:r.prune ~timely
      received
  in
  let unfused = Lgraph.create n ~self:r.owner in
  let m = Lgraph_ref.create n ~self:r.owner in
  List.iter
    (fun (q, _) ->
      Option.iter
        (fun g -> Lgraph.merge_max_into ~above ~into:unfused g)
        (received q);
      Option.iter
        (fun s ->
          Lgraph_ref.merge_max_into ~above ~into:m (Lgraph_ref.copy model.(s)))
        (sent q))
    r.timely;
  List.iter
    (fun (q, _) ->
      Lgraph.set_edge unfused q r.owner ~label:round;
      Lgraph_ref.set_edge m q r.owner ~label:round)
    r.timely;
  if r.prune then begin
    Lgraph.prune_unreachable unfused ~self:r.owner;
    Lgraph_ref.prune_unreachable m ~self:r.owner
  end;
  real.(r.dst) <- fused;
  model.(r.dst) <- m;
  Lgraph.equal fused unfused

let run_program (n, ops) =
  let real = Array.init 3 (fun s -> Lgraph.create n ~self:(s mod n)) in
  let model = Array.init 3 (fun s -> Lgraph_ref.create n ~self:(s mod n)) in
  let scratch = Lgraph.scratch n in
  (* word-level strong connectivity against Tarjan on the unlabelled
     edges; a node set of at most one node counts as connected *)
  let sc_agrees g =
    Lgraph.is_strongly_connected g
    = (Lgraph.node_count g <= 1
      || Scc.is_strongly_connected ~nodes:(Lgraph.nodes g) (Lgraph.to_digraph g))
  in
  let agree () =
    Array.for_all2 (fun l g -> Lgraph_ref.agrees l g && sc_agrees l) real model
  in
  List.for_all
    (fun op ->
      let same_ok =
        match op with
        | Fill (s, es) ->
            List.iter
              (fun (q, p, label) ->
                Lgraph.set_edge real.(s) q p ~label;
                Lgraph_ref.set_edge model.(s) q p ~label)
              es;
            true
        | Remove (s, q, p) ->
            Lgraph.remove_edge real.(s) q p;
            Lgraph_ref.remove_edge model.(s) q p;
            true
        | Merge (a, b, above) ->
            Lgraph.merge_max_into ?above ~into:real.(a) real.(b);
            Lgraph_ref.merge_max_into ?above ~into:model.(a) (Lgraph_ref.copy model.(b));
            true
        | Purge (s, upto) ->
            Lgraph.purge real.(s) ~upto;
            Lgraph_ref.purge model.(s) ~upto;
            true
        | Prune (s, self) ->
            Lgraph.prune_unreachable real.(s) ~self;
            Lgraph_ref.prune_unreachable model.(s) ~self;
            true
        | Reset (s, self) ->
            Lgraph.reset real.(s) ~self;
            Lgraph_ref.reset model.(s) ~self;
            true
        | Swap (a, b) ->
            Lgraph.swap real.(a) real.(b);
            let m = model.(a) in
            model.(a) <- model.(b);
            model.(b) <- m;
            true
        | Copy (a, b) ->
            real.(a) <- Lgraph.copy real.(b);
            model.(a) <- Lgraph_ref.copy model.(b);
            true
        | Same (a, b) ->
            Lgraph.same_support real.(a) real.(b)
            = Lgraph_ref.same_support model.(a) model.(b)
        | Rebuild r -> run_rebuild n scratch real model r
      in
      same_ok && agree ())
    ops

let print_program (n, ops) =
  let op = function
    | Fill (s, es) -> Printf.sprintf "fill %d (%d edges)" s (List.length es)
    | Remove (s, q, p) -> Printf.sprintf "remove %d %d>%d" s q p
    | Merge (a, b, t) ->
        Printf.sprintf "merge %d<-%d above %s" a b
          (match t with None -> "-" | Some t -> string_of_int t)
    | Purge (s, u) -> Printf.sprintf "purge %d %d" s u
    | Prune (s, v) -> Printf.sprintf "prune %d self %d" s v
    | Reset (s, v) -> Printf.sprintf "reset %d self %d" s v
    | Swap (a, b) -> Printf.sprintf "swap %d %d" a b
    | Copy (a, b) -> Printf.sprintf "copy %d<-%d" a b
    | Same (a, b) -> Printf.sprintf "same_support %d %d" a b
    | Rebuild r ->
        Printf.sprintf "rebuild %d self %d margin %d above %s%s timely [%s]"
          r.dst r.owner r.margin
          (match r.above with
          | `Zero -> "0"
          | `Fixed a -> string_of_int a
          | `Below_round d -> Printf.sprintf "round-%d" d)
          (if r.prune then " prune" else "")
          (String.concat " "
             (List.map
                (fun (q, s) ->
                  Printf.sprintf "%d:%s" q
                    (match s with None -> "-" | Some s -> string_of_int s))
                r.timely))
  in
  Printf.sprintf "n=%d: %s" n (String.concat "; " (List.map op ops))

(* The scratch keeps no reference to the graphs of a finished rebuild:
   twenty dense received graphs weigh far more than everything the
   scratch still reaches afterwards. *)
let test_rebuild_releases_senders () =
  let n = 40 in
  let dense self =
    let g = Lgraph.create n ~self in
    for q = 0 to n - 1 do
      for p = 0 to n - 1 do
        Lgraph.set_edge g q p ~label:(1 + ((q + p + self) mod 7))
      done
    done;
    g
  in
  let senders = Array.init 20 dense in
  let s = Lgraph.scratch n in
  let g =
    Lgraph.rebuild s ~self:0 ~round:8 ~above:0 ~prune:true
      ~timely:(Bitset.of_list n (List.init 20 Fun.id))
      (fun q -> Some senders.(q))
  in
  check_int "all edges" (n * n) (Lgraph.edge_count g);
  let sent =
    Array.fold_left (fun acc g -> acc + Obj.reachable_words (Obj.repr g)) 0 senders
  in
  check "scratch reaches no sender" true
    (Obj.reachable_words (Obj.repr s) < sent / 4);
  (* a rebuild that raises midway leaves the scratch clean *)
  check "universe mismatch raises" true
    (try
       ignore
         (Lgraph.rebuild s ~self:0 ~round:9 ~above:0 ~prune:false
            ~timely:(Bitset.of_list n [ 0; 1 ])
            (fun q ->
              Some (if q = 0 then senders.(0) else Lgraph.create 3 ~self:0)));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (list (triple int int int)))
    "next rebuild starts clean" [ (1, 1, 9) ]
    (Lgraph.edges
       (Lgraph.rebuild s ~self:1 ~round:9 ~above:0 ~prune:true
          ~timely:(Bitset.of_list n [ 1 ]) (fun _ -> None)))

(* A [received] callback that mutates a graph it returned earlier in the
   same rebuild: the rebuild merges that graph as it was returned (the
   mutation copies it first), and the caller's handle sees the change. *)
let test_rebuild_reads_senders_as_returned () =
  let n = 70 in
  let g0 = Lgraph.create n ~self:0 in
  Lgraph.set_edge g0 5 0 ~label:2;
  Lgraph.set_edge g0 69 5 ~label:3;
  let s = Lgraph.scratch n in
  let g =
    Lgraph.rebuild s ~self:0 ~round:4 ~above:0 ~prune:false
      ~timely:(Bitset.of_list n [ 0; 1 ])
      (fun q ->
        if q = 0 then Some g0
        else begin
          for p = 0 to n - 1 do
            Lgraph.set_edge g0 0 p ~label:1
          done;
          Lgraph.remove_edge g0 69 5;
          None
        end)
  in
  Alcotest.(check (list (triple int int int)))
    "merged as returned"
    [ (0, 0, 4); (1, 0, 4); (5, 0, 2); (69, 5, 3) ]
    (Lgraph.edges g);
  check_int "the caller's graph changed" (n + 1) (Lgraph.edge_count g0)

(* The rooted prune skip.  Processes 0..m-1 run Algorithm 1's rebuild
   round after round over a fixed acyclic timely pattern (p hears
   itself, p - 1 and a few lower ids), each sending its previous
   rebuild, so every sender's graph is rooted at that sender and the
   closure is skipped; every rebuild is checked against the dense
   always-pruning reference.  Then the last process's graph is changed
   by each mutator so that some node no longer reaches it, and a
   receiver that hears only that process must prune exactly as the
   reference does.  Two ids stay out of the pattern: [z], which no
   process hears, and the receiver [recv].  With n > 63 both sit in the
   second support word. *)
let reference_rebuild n ~self ~round ~above ~timely received =
  let m = Lgraph_ref.create n ~self in
  Bitset.iter
    (fun q ->
      Option.iter
        (fun g -> Lgraph_ref.merge_max_into ~above ~into:m (Lgraph_ref.of_lgraph g))
        (received q))
    timely;
  Bitset.iter (fun q -> Lgraph_ref.set_edge m q self ~label:round) timely;
  Lgraph_ref.prune_unreachable m ~self;
  m

(* Every node of [g] reaches [q] along its edges. *)
let all_reach g q =
  let m = Lgraph_ref.of_lgraph g in
  let pruned = Lgraph_ref.copy m in
  Lgraph_ref.prune_unreachable pruned ~self:q;
  pruned.Lgraph_ref.nodes = m.Lgraph_ref.nodes

let run_rooted_program (n, seed) =
  let rng = Rng.of_int seed in
  let m = min (n - 2) (5 + Rng.int rng 6) and z = n - 2 and recv = n - 1 in
  let pt =
    Array.init m (fun p ->
        let s = Bitset.singleton n p in
        if p > 0 then Bitset.add s (p - 1);
        if p > 1 then
          for _ = 1 to 2 do
            Bitset.add s (Rng.int rng p)
          done;
        s)
  in
  let scratch = Lgraph.scratch n in
  let checked ~self ~round ~above ~timely received =
    let g = Lgraph.rebuild scratch ~self ~round ~above ~prune:true ~timely received in
    (g, Lgraph_ref.agrees g (reference_rebuild n ~self ~round ~above ~timely received))
  in
  let graphs = Array.init m (fun p -> Lgraph.create n ~self:p) in
  let ok = ref true in
  (* [round - n] is Algorithm 1's purge threshold: below every label in
     these m + 1 rounds, so no candidate edge is dropped *)
  for round = 1 to m + 1 do
    let sent = Array.copy graphs in
    for p = 0 to m - 1 do
      let g, agrees =
        checked ~self:p ~round ~above:(round - n) ~timely:pt.(p) (fun q ->
            Some sent.(q))
      in
      if not agrees then ok := false;
      graphs.(p) <- g
    done
  done;
  let last = m + 1 and q = m - 1 in
  let g0 = graphs.(q) in
  (* each mutation gives the sender its result is heard from, and the
     result *)
  let on_copy f () =
    let g = Lgraph.copy g0 in
    f g;
    (q, g)
  in
  let swapped () =
    let g = Lgraph.copy g0 and h = Lgraph.copy graphs.(0) in
    Lgraph.swap g h;
    (g, h)
  in
  let isolated_z = Lgraph.create n ~self:z in
  let mutations =
    [
      ("set_edge", on_copy (fun g -> Lgraph.set_edge g q z ~label:1));
      ( "remove_edge",
        on_copy (fun g ->
            for v = 0 to n - 1 do
              if v <> q then Lgraph.remove_edge g v q
            done) );
      ("add_node", on_copy (fun g -> Lgraph.add_node g z));
      ("merge_max_into", on_copy (fun g -> Lgraph.merge_max_into ~into:g isolated_z));
      ("purge", on_copy (fun g -> Lgraph.purge g ~upto:last));
      ("prune_unreachable", on_copy (fun g -> Lgraph.prune_unreachable g ~self:0));
      ("reset", on_copy (fun g -> Lgraph.reset g ~self:z));
      ("swap", fun () -> (q, fst (swapped ())));
      ("swap, other side", fun () -> (0, snd (swapped ())));
      ("union_nodes_into", on_copy (fun g -> Lgraph.union_nodes_into ~into:g isolated_z));
      ( "Codec.read",
        fun () ->
          let h = Lgraph.copy g0 in
          Lgraph.add_node h z;
          (q, Codec.decode (Codec.encode h ~label_bits:8) ~n ~self:q ~label_bits:8) );
    ]
  in
  let hear sender ~above g =
    snd
      (checked ~self:recv ~round:(last + 1) ~above
         ~timely:(Bitset.singleton n sender) (fun _ -> Some g))
  in
  let mutated =
    List.for_all
      (fun (name, mutate) ->
        let sender, g = mutate () in
        if all_reach g sender then
          failwith (name ^ ": the mutation left the graph rooted");
        hear sender ~above:0 g)
      mutations
  in
  (* an unchanged, rooted sender whose older labels the merge drops:
     only q's own fresh edges survive [above = last - 1] *)
  !ok && all_reach g0 q && mutated && hear q ~above:(last - 1) g0

let gen_rooted =
  QCheck2.Gen.(pair (oneof [ int_range 7 12; int_range 64 70 ]) (int_bound 1_000_000))

let kernel_props =
  [
    QCheck2.Test.make ~count:300 ~print:print_program
      ~name:"kernels match the dense reference" gen_program run_program;
    QCheck2.Test.make ~count:40
      ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
      ~name:"rebuild prunes exactly after every mutator" gen_rooted
      run_rooted_program;
  ]

let tests =
  [
    Alcotest.test_case "create" `Quick test_create;
    Alcotest.test_case "set_edge" `Quick test_set_edge;
    Alcotest.test_case "remove_edge" `Quick test_remove_edge;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "edges listing" `Quick test_edges_listing;
    Alcotest.test_case "merge max" `Quick test_merge_max;
    Alcotest.test_case "purge" `Quick test_purge;
    Alcotest.test_case "prune unreachable" `Quick test_prune_unreachable;
    Alcotest.test_case "prune keeps owner" `Quick test_prune_keeps_owner;
    Alcotest.test_case "strong connectivity" `Quick test_strong_connectivity;
    Alcotest.test_case "to_digraph" `Quick test_to_digraph;
    Alcotest.test_case "min/max label" `Quick test_min_max_label;
    Alcotest.test_case "encoded bits" `Quick test_encoded_bits;
    Alcotest.test_case "swap" `Quick test_swap;
    Alcotest.test_case "copy/equal" `Quick test_copy_equal;
    Alcotest.test_case "rebuild releases the senders" `Quick
      test_rebuild_releases_senders;
    Alcotest.test_case "rebuild reads the senders as returned" `Quick
      test_rebuild_reads_senders_as_returned;
  ]
  @ List.map QCheck_alcotest.to_alcotest (props @ kernel_props)
