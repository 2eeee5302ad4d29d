(** Simulation jobs: the engine's unit of work.

    A job is a complete, self-contained simulation request — the run
    description (as canonical {!Ssg_adversary.Run_format} text), the
    algorithm to execute, the agreement parameter [k], the proposal
    inputs, an optional round budget and the monitor switch.  Values of
    this type are immutable plain data, so they cross domain and wire
    boundaries freely.

    {b Canonicalization.}  Constructors normalize every field so that
    jobs describing the same simulation are structurally equal and share
    one {!key}: the run text is re-serialized through
    [Run_format.of_string |> to_string] (sorted edge order, comments
    stripped — a permuted-but-equal hand-written description keys
    identically), and an explicit [inputs] array equal to the default
    distinct inputs [0..n-1] collapses to the default.  The engine's
    result cache and in-flight dedup both key on [key]. *)

type algorithm = Kset | Floodmin | Flood_consensus | Naive_min

type t = private {
  run : string;  (** canonical [ssg-run v1] text *)
  algorithm : algorithm;
  k : int;
  inputs : int array option;  (** [None] = distinct inputs [0..n-1] *)
  rounds : int option;  (** [None] = the run's decision horizon *)
  monitor : bool;  (** lemma monitors (Algorithm 1 only) *)
  key : string;  (** the cache key, computed once by the constructors; see {!key} *)
  adv : Ssg_adversary.Adversary.t;
      (** [run], parsed once by the constructors; what {!execute} runs.
          Not part of the key or the wire form: it is [run]'s meaning. *)
}

(** [make adv] builds a job from an in-memory run description.
    Defaults: [algorithm = Kset], [k = 1], distinct inputs, horizon
    rounds, monitors off.
    @raise Invalid_argument for recurrent runs (not serializable) or
    [k < 1]. *)
val make :
  ?algorithm:algorithm ->
  ?k:int ->
  ?inputs:int array ->
  ?rounds:int ->
  ?monitor:bool ->
  Ssg_adversary.Adversary.t ->
  t

(** [of_run_text text] — like {!make} from serialized form.
    @raise Failure on malformed run text, [Invalid_argument] on bad
    parameters. *)
val of_run_text :
  ?algorithm:algorithm ->
  ?k:int ->
  ?inputs:int array ->
  ?rounds:int ->
  ?monitor:bool ->
  string ->
  t

(** [key job] — the canonical cache/dedup key.  [key a = key b] iff the
    jobs request the same simulation.

    A compact exact binary string, not the run text: the header fields
    (algorithm, [k], inputs, round budget, monitor switch) as text, each
    closed by a NUL byte, then [n] and the prefix length as 32-bit
    big-endian words, then each prefix graph and the stable graph as a
    fixed-width [n×n] adjacency bitset.  Equal keys iff equal canonical
    run texts and equal header fields.  Computed once when the job is
    built, so this is a field read.  Keys contain arbitrary bytes: every
    carrier (store records, wire frames) length-prefixes them. *)
val key : t -> string

val equal : t -> t -> bool
val algorithm_name : algorithm -> string

(** What a finished job reports back — the wire-friendly projection of
    {!Ssg_sim.Runner.report}. *)
type outcome = {
  algorithm : string;
  n : int;
  min_k : int;
  rounds_run : int;
  decisions : (int * int) option array;
      (** per process: [(round, value)] of its irrevocable decision *)
  distinct_decisions : int;
  messages_sent : int;
  messages_delivered : int;
  bits_sent : int;
  violations : string list;
}

(** [execute job] runs the simulation in the calling domain.  [min_k],
    when the caller already computed the run's
    {!Ssg_adversary.Adversary.min_k} (the engine's front door does), is
    reported in the outcome as is instead of being searched for again.
    @raise Failure / [Invalid_argument] on inconsistent jobs (e.g. an
    inputs array whose length differs from the run's [n]) — the engine
    converts these into error replies. *)
val execute : ?min_k:int -> t -> outcome

(** How the service layer reports a finished submission: the outcome (or
    the execution error), whether it was served from the result cache /
    deduplicated against an in-flight twin, and the submit-to-reply
    latency observed by the engine. *)
type completion = {
  result : (outcome, string) Stdlib.result;
  cached : bool;
  latency_ms : float;
}

val pp_completion : Format.formatter -> completion -> unit
