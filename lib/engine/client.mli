(** Client side of the [ssgd] wire protocol: the synchronous client.

    One value per connection; each call is one plain-frame
    request/reply exchange (a [t] must not be shared between threads
    without external serialization — open one connection per thread
    instead, which is also what exercises the server's concurrency).

    This client stays alongside the pipelined {!Pclient} on purpose.  A
    plain exchange is served inline on the server's connection thread,
    while an id-framed one gets a handler thread of its own.  Measured
    against one worker ([ssg serve --workers 1], 3,000 fresh-connection
    exchanges of a cached n = 8 job per leg, 6 interleaved repetitions),
    the plain exchange took 158–218 µs wall and 123–160 µs of worker
    CPU, the id-framed one 291–357 µs wall and 263–290 µs of worker
    CPU.  The router forwards every job over a fresh connection, so it
    speaks the plain dialect through this client. *)

type t

(** [connect ~socket ()] — [socket] is a {!Ssg_net.Transport} address
    string ([unix:PATH], [tcp:HOST:PORT], or a bare Unix-socket path) —
    with bounded exponential-backoff retry:
    [retries] (default 3) extra attempts, with {e full jitter} — each
    retry sleeps a uniform draw from (0, backoff] where backoff starts
    at [retry_backoff_s] (default 0.05 s) and doubles — retried only on
    transient errors ([ECONNREFUSED], [ENOENT], [EAGAIN], [EINTR]).
    The jitter de-correlates the reconnect times of clients that all
    lost the same server at once, so a restarted worker is not greeted
    by a thundering herd.

    [deadline_s] arms a per-reply deadline ([SO_RCVTIMEO]): an rpc whose
    reply does not arrive in time raises [Failure] instead of blocking
    forever on a wedged or malicious server.  Default: no deadline.
    @raise Unix.Unix_error when nothing is listening on [socket] after
    all retries.
    @raise Invalid_argument if [socket] does not parse as an address,
    [retries < 0], or [deadline_s <= 0]. *)
val connect :
  ?retries:int ->
  ?retry_backoff_s:float ->
  ?deadline_s:float ->
  socket:string ->
  unit ->
  t

(** [dial] is {!connect}'s retry loop returning the bare descriptor,
    deadline armed: how {!Pclient.connect} reaches a server.  Same
    parameters and exceptions as {!connect}. *)
val dial :
  ?retries:int ->
  ?retry_backoff_s:float ->
  ?deadline_s:float ->
  socket:string ->
  unit ->
  Unix.file_descr

(** [connect_any ~sockets ()] — multi-address failover: one pass tries
    every address in order, and up to [retries] further passes follow,
    separated by the same jittered doubling backoff as {!connect}.  The
    first address that accepts wins, so listing a cluster's router
    first and its workers after it degrades gracefully when the router
    is down.
    @raise Unix.Unix_error (the last attempt's) when no address
    accepted, [Invalid_argument] on an empty list or bad parameters. *)
val connect_any :
  ?retries:int ->
  ?retry_backoff_s:float ->
  ?deadline_s:float ->
  sockets:string list ->
  unit ->
  t

val close : t -> unit

(** [rpc ?ctx c request] — one raw request/reply exchange, no
    reply-shape checking: what the cluster router uses to forward a
    client's request verbatim and relay whatever the backend answered.
    [ctx], when given, travels in the additive context envelope
    ({!Ssg_net.Frame.with_ctx}) so the server's spans for this request
    adopt it as their remote parent; omit it and the wire bytes are
    exactly the pre-context protocol.
    @raise Failure on an exceeded deadline or an undecodable reply,
    [End_of_file] / [Unix.Unix_error] when the peer dies mid-exchange. *)
val rpc : ?ctx:Ssg_obs.Context.t -> t -> Protocol.request -> Protocol.reply

(** [submit ?ctx c job] — the job's completion (cache-hit flag, latency,
    and the outcome or the execution error).
    @raise Failure on a protocol-level [Error] reply, a corrupt or
    truncated reply frame, an exceeded deadline, or an unexpected reply
    kind. *)
val submit : ?ctx:Ssg_obs.Context.t -> t -> Job.t -> Job.completion

(** [submit_batch c jobs] — completions in submission order. *)
val submit_batch : t -> Job.t list -> Job.completion list

val stats : t -> Telemetry.snapshot

(** [trace_pull c] — drain the server's trace buffers (empty unless
    the daemon runs with tracing enabled, e.g. [ssgd --trace]): one
    {!Ssg_obs.Tracer.report} per process reached — a worker answers
    with its own, a router relays the pull to every backend and
    prepends its own. *)
val trace_pull : t -> Ssg_obs.Tracer.report list

(** [metrics_text c] — the server's stats as Prometheus text
    exposition, rendered server-side. *)
val metrics_text : t -> string

(** [shutdown c] asks the server to drain and exit; returns once the
    server acknowledged. *)
val shutdown : t -> unit

(** Elastic membership and warm handoff (router-facing unless noted). *)

(** [join c addr] announces [addr] as a new cluster member to the
    router behind [c]; returns once it is admitted (and any warm
    handoff toward it has run). *)
val join : t -> string -> unit

(** [leave c addr] retires member [addr]; the router pulls its hot
    keys first. *)
val leave : t -> string -> unit

(** [export c n] — up to [n] of the peer worker's hottest cache
    entries, most-recently-used first. *)
val export : t -> int -> (string * string) list

(** [transfer c entries] seeds entries into the peer worker's cache;
    returns the count imported. *)
val transfer : t -> (string * string) list -> int

(** [compact c] rolls the peer's store generation (snapshot + journal
    truncate); a router fans it out and answers with the sum.  0 when
    no store is attached. *)
val compact : t -> int

(** {1 Typed reply matching}

    Shared with {!Pclient}: [Ok] for the reply shape the request
    expects, [Error msg] carrying a protocol [Error]'s message verbatim
    (lint diagnostics ride in it) or naming an unexpected reply shape.
    The synchronous calls above raise [Failure ("server error: " ^ msg)]
    on [Error msg]. *)

val completion : Protocol.reply -> (Job.completion, string) result
val snapshot : Protocol.reply -> (Telemetry.snapshot, string) result
val metrics : Protocol.reply -> (string, string) result
val shutting_down : Protocol.reply -> (unit, string) result
