(** One-stop execution of an algorithm against a run description.

    A [report] packages everything the experiments and tests ask about a
    single run: the executor outcome, the exact stable skeleton and its
    root structure, the run's minimal [k], and (for monitored runs of
    Algorithm 1) the lemma-checker verdicts. *)

open Ssg_graph
open Ssg_rounds
open Ssg_skeleton
open Ssg_adversary

type report = {
  adversary : string;
  algorithm : string;
  n : int;
  inputs : int array;
  outcome : Executor.outcome;
  skeleton : Digraph.t;  (** the exact [G^∩∞] of the run description *)
  analysis : Analysis.t;  (** SCC/root structure of [skeleton] *)
  min_k : int;  (** least [k] such that the run satisfies [Psrcs(k)] *)
  violations : string list;
      (** monitor verdicts; [[]] for unmonitored runs too *)
}

(** [distinct_inputs n] is the canonical worst case: [n] pairwise distinct
    proposal values [0 .. n-1] (process [p] proposes [p]). *)
val distinct_inputs : int -> int array

(** [shuffled_inputs rng n] — a random permutation of [0 .. n-1]. *)
val shuffled_inputs : Ssg_util.Rng.t -> int -> int array

(** [default_rounds adv] is {!Adversary.decision_horizon}: enough for
    Algorithm 1 to terminate by Lemma 11. *)
val default_rounds : Adversary.t -> int

(** [run_kset ?variant ?inputs ?rounds ?monitor adv] executes Algorithm 1
    (or an ablated [variant] from {!Ssg_core.Kset_agreement.make_alg}).
    With [monitor:true] (default [false]) the lemma checkers shadow the
    run; the final skeleton is treated as exact iff the run executed past
    the adversary's prefix.  [min_k], when the caller already computed
    {!Adversary.min_k}[ adv], is reported as is instead of being
    searched for again. *)
val run_kset :
  ?variant:(module Round_model.ALGORITHM
              with type state = Ssg_core.Kset_agreement.state) ->
  ?inputs:int array ->
  ?rounds:int ->
  ?monitor:bool ->
  ?min_k:int ->
  Adversary.t ->
  report

(** [run_packed alg ?inputs ?rounds ?min_k adv] executes any packed
    algorithm (baselines) without monitoring; [min_k] as in
    {!run_kset}. *)
val run_packed :
  Round_model.packed ->
  ?inputs:int array ->
  ?rounds:int ->
  ?min_k:int ->
  Adversary.t ->
  report
