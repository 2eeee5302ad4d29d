(* Tests for the stable-skeleton approximation (Approx) — the executable
   content of Section IV-A: Observation 1, Lemmas 3–7, Theorem 8.

   Strategy: drive a full system of Approx instances by hand against
   generated adversaries (any predicate — the approximation must be correct
   regardless), tracking ground-truth skeletons, and assert each lemma
   statement directly.  The Monitor module repeats these checks online; here
   we also cover Lemma 4 (path propagation), which the monitor skips. *)

open Ssg_util
open Ssg_graph
open Ssg_skeleton
open Ssg_adversary
open Ssg_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Run n Approx instances for [rounds] rounds against an adversary,
   calling [observe ~round states skeletons] after each round, where
   [skeletons.(r-1)] is G^∩r. *)
let drive ?(enable_purge = true) ?(enable_prune = true) adv ~rounds ~observe =
  let n = Adversary.n adv in
  let states =
    Array.init n (fun self ->
        Approx.create ~enable_purge ~enable_prune ~n ~self ())
  in
  let skel = Skeleton.start ~n in
  let skeletons = ref [] in
  for r = 1 to rounds do
    let graph = Adversary.graph adv r in
    ignore (Skeleton.absorb skel graph);
    skeletons := Skeleton.current skel :: !skeletons;
    let payloads = Array.map Approx.message states in
    Array.iteri
      (fun q s ->
        Approx.step s ~round:r ~received:(fun p ->
            if Digraph.mem_edge graph p q then Some payloads.(p) else None))
      states;
    observe ~round:r states (Array.of_list (List.rev !skeletons))
  done;
  states

let adversaries seed =
  let rng = Rng.of_int seed in
  [
    Build.figure1 ();
    Build.block_sources rng ~n:7 ~k:3 ~prefix_len:3 ~noise:0.4 ();
    Build.partitioned rng ~n:6 ~blocks:2 ~prefix_len:2 ();
    Build.arbitrary rng ~n:6 ~density:0.3 ~prefix_len:4 ~noise:0.5 ();
    Build.lower_bound ~n:6 ~k:3;
    Build.with_recurrent_noise rng (Build.partitioned rng ~n:6 ~blocks:2 ()) ~noise:0.3;
  ]

let for_all_adversaries f = List.iter f (adversaries 42)

let test_observation1 () =
  for_all_adversaries (fun adv ->
      let n = Adversary.n adv in
      ignore
        (drive adv ~rounds:(2 * n) ~observe:(fun ~round states _ ->
             Array.iteri
               (fun p s ->
                 let g = Approx.graph_view s in
                 check "owner present" true (Lgraph.mem_node g p);
                 Lgraph.iter_edges g (fun _ _ l ->
                     check "no stale label" true (l > round - n)))
               states)))

let test_lemma3 () =
  (* PT_p = PT(p, r), and the (q -> p) edge label is r iff q ∈ PT(p,r). *)
  for_all_adversaries (fun adv ->
      let n = Adversary.n adv in
      ignore
        (drive adv ~rounds:(2 * n) ~observe:(fun ~round states skels ->
             let skel = skels.(round - 1) in
             Array.iteri
               (fun p s ->
                 let pt_true = Digraph.preds skel p in
                 check "PT matches" true (Bitset.equal (Approx.pt s) pt_true);
                 let g = Approx.graph_view s in
                 for q = 0 to n - 1 do
                   check "fresh label iff timely" true
                     ((Lgraph.label g q p = round) = Bitset.mem pt_true q)
                 done)
               states)))

let test_lemma4_path_propagation () =
  (* If p1 -> ... -> p(l+1) is a path in G^∩r (r >= n, l <= n-1), then for
     q ∈ PT(p1, r - l), G^r_{p(l+1)} has a (q -> p1) edge labelled in
     [r - l, r] (the paper's induction establishes the non-strict lower
     bound: the base-case label is exactly r - l).  We check it on the
     figure-1 run where the stable path p3 -> p4 -> p5 -> p6 exists. *)
  let adv = Build.figure1 () in
  let n = 6 in
  ignore
    (drive adv ~rounds:(2 * n) ~observe:(fun ~round states skels ->
         if round >= n then begin
           let skel = skels.(round - 1) in
           (* path 2 -> 3 -> 4 -> 5 (p3..p6), length 3 *)
           check "path in skeleton" true
             (Digraph.mem_edge skel 2 3 && Digraph.mem_edge skel 3 4
             && Digraph.mem_edge skel 4 5);
           let l = 3 in
           let pt_p1 = Digraph.preds skels.(round - l - 1) 2 in
           let g = Approx.graph_view states.(5) in
           Bitset.iter
             (fun q ->
               let lbl = Lgraph.label g q 2 in
               check
                 (Printf.sprintf "r=%d q=%d edge labelled in [r-l, r]" round q)
                 true
                 (lbl >= round - l && lbl <= round))
             pt_p1
         end))

let test_lemma5 () =
  (* r >= n: G^r_p ⊇ C^r_p (nodes and edges). *)
  for_all_adversaries (fun adv ->
      let n = Adversary.n adv in
      ignore
        (drive adv ~rounds:(2 * n) ~observe:(fun ~round states skels ->
             if round >= n then
               let skel = skels.(round - 1) in
               Array.iteri
                 (fun p s ->
                   let comp = Scc.component_containing skel p in
                   let g = Approx.graph_view s in
                   let nodes = Lgraph.nodes g in
                   check "component nodes present" true
                     (Bitset.subset comp nodes);
                   Bitset.iter
                     (fun q ->
                       Digraph.iter_preds skel q (fun q' ->
                           if Bitset.mem comp q' then
                             check "component edge present" true
                               (Lgraph.mem_edge g q' q)))
                     comp)
                 states)))

let test_lemma6 () =
  (* Every edge (q' --s--> q) in G^r_p satisfies q' ∈ PT(q, s). *)
  for_all_adversaries (fun adv ->
      let n = Adversary.n adv in
      ignore
        (drive adv ~rounds:(2 * n) ~observe:(fun ~round:_ states skels ->
             Array.iter
               (fun s ->
                 Lgraph.iter_edges (Approx.graph_view s) (fun q' q lbl ->
                     check "edge was timely at label round" true
                       (Digraph.mem_edge skels.(lbl - 1) q' q)))
               states)))

let test_lemma7 () =
  (* If G^r_p is strongly connected and r - n + 1 >= 1 then
     G^r_p ⊆ C^(r-n+1)_p. *)
  for_all_adversaries (fun adv ->
      let n = Adversary.n adv in
      ignore
        (drive adv ~rounds:(3 * n) ~observe:(fun ~round states skels ->
             if round >= n then
               Array.iteri
                 (fun p s ->
                   if Approx.is_strongly_connected s then begin
                     let base = skels.(round - n) in
                     let comp = Scc.component_containing base p in
                     let g = Approx.graph_view s in
                     check "nodes inside component" true
                       (Bitset.subset (Lgraph.nodes g) comp);
                     Lgraph.iter_edges g (fun q' q _ ->
                         check "edges inside skeleton" true
                           (Digraph.mem_edge base q' q))
                   end)
                 states)))

let test_theorem8 () =
  (* A strongly connected G^R_p (R >= n, past stabilization) contains the
     full stable component C^∞_q of each of its nodes. *)
  for_all_adversaries (fun adv ->
      let n = Adversary.n adv in
      let final_skel = Adversary.stable_skeleton adv in
      let rounds = Adversary.decision_horizon adv in
      ignore
        (drive adv ~rounds ~observe:(fun ~round states _ ->
             if round >= n then
               Array.iter
                 (fun s ->
                   if Approx.is_strongly_connected s then begin
                     let g = Approx.graph_view s in
                     let nodes = Lgraph.nodes g in
                     Bitset.iter
                       (fun q ->
                         let comp = Scc.component_containing final_skel q in
                         check "C∞ nodes contained" true
                           (Bitset.subset comp nodes);
                         Bitset.iter
                           (fun v ->
                             Digraph.iter_preds final_skel v (fun u ->
                                 if Bitset.mem comp u then
                                   check "C∞ edges contained" true
                                     (Lgraph.mem_edge g u v)))
                           comp)
                       nodes
                   end)
                 states)))

let test_root_members_become_strongly_connected () =
  (* Lemma 11's engine: members of a root component see a strongly
     connected approximation by stabilization + n - 1. *)
  for_all_adversaries (fun adv ->
      let n = Adversary.n adv in
      let analysis = Analysis.analyze (Adversary.stable_skeleton adv) in
      let horizon = Adversary.prefix_length adv + 1 + n in
      let states = drive adv ~rounds:horizon ~observe:(fun ~round:_ _ _ -> ()) in
      Array.iteri
        (fun p s ->
          if Analysis.is_root analysis p then
            check
              (Printf.sprintf "root member %d SC by %d" p horizon)
              true
              (Approx.is_strongly_connected s))
        states)

let test_approx_misuse () =
  let a = Approx.create ~n:3 ~self:0 () in
  check "out-of-order round" true
    (try
       Approx.step a ~round:2 ~received:(fun _ -> None);
       false
     with Invalid_argument _ -> true);
  check "bad self" true
    (try ignore (Approx.create ~n:3 ~self:3 ()); false
     with Invalid_argument _ -> true)

let test_message_is_copy () =
  let a = Approx.create ~n:2 ~self:0 () in
  let m = Approx.message a in
  Lgraph.set_edge m 1 0 ~label:1;
  check "internal state unaffected" false
    (Lgraph.mem_edge (Approx.graph_view a) 1 0)

let test_combined_ablations_still_sound_edges () =
  (* Even with purge AND prune disabled, Lemma 6 soundness holds: the
     approximation never invents an edge (it only retains stale ones). *)
  let adv = Build.figure1 () in
  ignore
    (drive ~enable_purge:false ~enable_prune:false adv ~rounds:12
       ~observe:(fun ~round:_ states skels ->
         Array.iter
           (fun s ->
             Lgraph.iter_edges (Approx.graph_view s) (fun q' q lbl ->
                 check "edge was timely at its label round" true
                   (Digraph.mem_edge skels.(lbl - 1) q' q)))
           states))

let test_purge_disabled_violates_obs1 () =
  (* Failure injection: without Line 24 the Observation 1 bound fails in
     runs whose early edges die. *)
  let adv = Build.figure1 () in
  let n = 6 in
  let stale_found = ref false in
  ignore
    (drive ~enable_purge:false adv ~rounds:(3 * n)
       ~observe:(fun ~round states _ ->
         Array.iter
           (fun s ->
             Lgraph.iter_edges (Approx.graph_view s) (fun _ _ l ->
                 if l <= round - n then stale_found := true))
           states));
  check "stale labels appear" true !stale_found

(* Differential test of [Approx.step] against an in-test reference of
   Lines 9 and 14–25 on the dense model ([Lgraph_ref]), in the paper's
   unfused order: PT update, fold the timely senders' graphs by per-edge
   max, set the fresh edges, purge, prune.  Every random run is checked
   under all four purge/prune switch settings, every process and round
   compared with [Lgraph.equal].  Messages taken in round r must still
   equal their round-r snapshot after the sender steps rounds r+1 and
   r+2: a late-delivery synchronizer buffers them that long. *)
let reference_step ~enable_purge ~enable_prune ~n ~round ~self pt g ~heard
    ~msgs =
  for p = 0 to n - 1 do
    if not (heard p) then pt.(p) <- false
  done;
  Lgraph_ref.reset g ~self;
  Array.iteri (fun p timely -> if timely then Lgraph_ref.merge_max_into ~into:g msgs.(p)) pt;
  Array.iteri (fun p timely -> if timely then Lgraph_ref.set_edge g p self ~label:round) pt;
  if enable_purge then Lgraph_ref.purge g ~upto:(round - n);
  if enable_prune then Lgraph_ref.prune_unreachable g ~self

let matches_reference (seed, n, density, noise) =
  let adv =
    Build.arbitrary (Rng.of_int seed) ~n ~density ~prefix_len:(n / 2) ~noise ()
  in
  List.for_all
    (fun (enable_purge, enable_prune) ->
      let states =
        Array.init n (fun self -> Approx.create ~enable_purge ~enable_prune ~n ~self ())
      in
      let pts = Array.init n (fun _ -> Array.make n true) in
      let model = Array.init n (fun self -> Lgraph_ref.create n ~self) in
      (* messages of the last three rounds, with their dense snapshots *)
      let sent = ref [] in
      let ok = ref true in
      for round = 1 to 3 * n do
        let graph = Adversary.graph adv round in
        let msgs = Array.map Approx.message states in
        let snaps = Array.map Lgraph_ref.copy model in
        Array.iteri
          (fun q s ->
            let heard p = Digraph.mem_edge graph p q in
            Approx.step s ~round ~received:(fun p -> if heard p then Some msgs.(p) else None);
            reference_step ~enable_purge ~enable_prune ~n ~round ~self:q pts.(q)
              model.(q) ~heard ~msgs:snaps;
            if
              not
                (Lgraph.equal (Approx.graph_view s) (Lgraph_ref.to_lgraph model.(q) ~self:q)
                && Array.for_all2 ( = ) pts.(q)
                     (Array.init n (fun p -> Approx.pt_mem s p)))
            then ok := false)
          states;
        sent := (msgs, snaps) :: List.filteri (fun i _ -> i < 2) !sent;
        List.iter
          (fun (msgs, snaps) ->
            if not (Array.for_all2 Lgraph_ref.agrees msgs snaps) then ok := false)
          !sent
      done;
      !ok)
    [ (true, true); (true, false); (false, true); (false, false) ]

let reference_props =
  [
    QCheck2.Test.make ~count:40 ~name:"step matches the Lines 9, 14-25 reference"
      ~print:(fun (seed, n, d, z) -> Printf.sprintf "seed %d n %d density %.2f noise %.2f" seed n d z)
      QCheck2.Gen.(
        quad (int_bound 1_000_000) (int_range 2 10) (float_range 0.1 0.9)
          (float_range 0. 0.8))
      matches_reference;
  ]

(* Words allocated by [f ()], minor and major.  A minor collection on
   both sides syncs the counters: without it, OCaml 5's [Gc.counters]
   and [Gc.allocated_bytes] see the minor heap only as of the last
   collection. *)
let allocated_words f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* Allocation regression: once a sparse run has settled, a round's
   rebuild allocates the graph it keeps (packed labels, support rows and
   offsets, node set) and little else — not an n×n matrix.  At n = 64 on
   a ring after one complete prefix round, a settled G_p has 128 edges
   (64 of them self-loops); the bound n²/4 = 1024 words per
   process-round is four times below a dense matrix, and the step
   needs about 380.  The messages and the [received]
   closures are made before the measured round, so it counts
   [Approx.step] only; the count is deterministic for this run. *)
let test_step_allocation () =
  let n = 64 in
  let adv =
    Adversary.make ~name:"ring"
      ~prefix:[| Digraph.complete ~self_loops:true n |]
      ~stable:(Gen.cycle_on n (Array.init n Fun.id))
  in
  let states = Array.init n (fun self -> Approx.create ~n ~self ()) in
  let round r =
    let graph = Adversary.graph adv r in
    let msgs = Array.map (fun s -> Some (Approx.message s)) states in
    let received =
      Array.init n (fun q ->
          let inbox =
            Array.init n (fun p ->
                if Digraph.mem_edge graph p q then msgs.(p) else None)
          in
          fun p -> inbox.(p))
    in
    allocated_words (fun () ->
        Array.iteri
          (fun q s -> Approx.step s ~round:r ~received:received.(q))
          states)
  in
  (* 2n rounds settle the ring; one more warms up; the next is measured *)
  for r = 1 to (2 * n) + 1 do
    ignore (round r)
  done;
  let words = round ((2 * n) + 2) /. float_of_int n in
  check_int "settled G_p is the ring" (2 * n)
    (Lgraph.edge_count (Approx.graph_view states.(0)));
  check
    (Printf.sprintf "%.0f words per process-round < n²/4 = %d" words
       (n * n / 4))
    true
    (words < float_of_int (n * n / 4))

let tests =
  [
    Alcotest.test_case "Observation 1" `Quick test_observation1;
    Alcotest.test_case "Lemma 3 (PT and fresh labels)" `Quick test_lemma3;
    Alcotest.test_case "Lemma 4 (path propagation)" `Quick
      test_lemma4_path_propagation;
    Alcotest.test_case "Lemma 5 (overapproximation)" `Quick test_lemma5;
    Alcotest.test_case "Lemma 6 (soundness of edges)" `Quick test_lemma6;
    Alcotest.test_case "Lemma 7 (containment when SC)" `Quick test_lemma7;
    Alcotest.test_case "Theorem 8 (component closure)" `Quick test_theorem8;
    Alcotest.test_case "root members reach SC (Lemma 11)" `Quick
      test_root_members_become_strongly_connected;
    Alcotest.test_case "misuse rejected" `Quick test_approx_misuse;
    Alcotest.test_case "message is a copy" `Quick test_message_is_copy;
    Alcotest.test_case "no purge -> Obs1 violated" `Quick
      test_purge_disabled_violates_obs1;
    Alcotest.test_case "ablated variants never invent edges" `Quick
      test_combined_ablations_still_sound_edges;
    Alcotest.test_case "settled step allocates < n²/4 words" `Quick
      test_step_allocation;
  ]
  @ List.map QCheck_alcotest.to_alcotest reference_props
