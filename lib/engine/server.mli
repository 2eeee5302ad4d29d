(** The [ssgd] daemon: {!Engine} served over a Unix-domain or TCP
    socket ({!Ssg_net.Transport} addresses — [unix:PATH], [tcp:HOST:PORT],
    or a bare path) — and the connection supervisor that the cluster
    router's front end runs too.

    One listener, one lightweight [Thread] per client connection (the
    handlers only do blocking I/O and waiting — the actual simulation
    work runs on the engine's worker {e domains}).  Every frame is an
    {!Ssg_net.Frame} frame; each connection carries one of two dialects,
    classified frame by frame:

    - {e plain} {!Protocol} frames — a strict request/reply pipeline,
      answered in order, inline on the connection's thread;
    - {e id-framed} requests ({!Ssg_net.Frame.with_id}) — pipelined: up
      to [max_inflight] requests per connection run concurrently, each
      on a thread of its own, and replies return {e in completion
      order}, each carrying its request's id.  Past the cap the reader
      serves requests inline, so a flooding client is throttled by its
      own socket rather than queueing unboundedly.

    Both dialects stay because the plain one is the cheap one.  Against
    one worker ([ssg serve --workers 1], 3,000 fresh-connection
    exchanges of a cached n = 8 job per leg, 6 interleaved
    repetitions), a plain exchange took 158–218 µs wall and 123–160 µs
    of worker CPU; the same exchange id-framed took 291–357 µs wall and
    263–290 µs of worker CPU, the difference being the handler thread
    it spawns.  The router's per-job forwards, the registry's probes and
    the CLI therefore speak the plain dialect ({!Client}).

    {b Supervision.}  Every connection runs inside a catch-all boundary:
    a malformed frame or job, an oversized header, a peer dying
    mid-frame, a reply write failing with [EPIPE]/[ECONNRESET] because
    the client vanished between request and reply, or any exception
    escaping the request handler is answered with an [Error] reply
    where the wire still allows one, and the descriptor is {e always}
    closed — a hostile client can cost the server one thread for one
    exchange, never a leaked fd or a hung peer.  Half-open clients are
    reaped by a per-connection read timeout ([SO_RCVTIMEO]);
    connections beyond [max_connections] are refused with an
    explanatory [Error].

    Shutdown is cooperative: a [Shutdown] request answers
    [Shutting_down], stops the accept loop and {e drains} live
    connections (bounded by [drain_timeout_s]); {!serve} then drains the
    engine's queue and removes the socket file.  A stale Unix socket
    file from a dead server is replaced on startup. *)

(** {1 The connection supervisor} *)

(** A request handler: the reply to one decoded request.  [ctx] is the
    trace context the request carried, if any.  It never sees
    [Shutdown], which {!supervise} answers itself; an exception it
    raises is answered with an [Error] reply and closes the
    connection. *)
type handler = ?ctx:Ssg_obs.Context.t -> Protocol.request -> Protocol.reply

(** The supervisor's connection limits. *)
type limits

(** [limits ()] validates the limits before anything is bound.
    - [max_connections] (default 256): concurrent connections beyond
      this are answered [Error "server at connection limit"] and closed.
    - [max_inflight] (default 32): pipelined requests running
      concurrently per connection before the reader applies
      back-pressure.
    - [read_timeout_s] (default 30., [<= 0.] disables): a connection
      idle or stalled mid-frame for this long is reaped.
    - [drain_timeout_s] (default 5.): how long shutdown waits for live
      connections to finish before abandoning them.
    @raise Invalid_argument if [max_connections < 1] or
    [max_inflight < 1]. *)
val limits :
  ?max_connections:int ->
  ?max_inflight:int ->
  ?read_timeout_s:float ->
  ?drain_timeout_s:float ->
  unit ->
  limits

(** [supervise limits listen_fd addr handler] accepts connections on
    [listen_fd] (bound to [addr]) and serves each with [handler] until
    a client sends [Shutdown]; it then closes [listen_fd], drains live
    connections and returns.  [faults] (default {!Faults.off}) is
    consulted before each reply frame.  [telemetry], the worker's,
    counts rejected frames, reaped and refused connections and injected
    faults, and has each reply write traced as a [server.reply_write]
    span; the router passes none. *)
val supervise :
  ?faults:Faults.t ->
  ?telemetry:Telemetry.t ->
  limits ->
  Unix.file_descr ->
  Ssg_net.Transport.addr ->
  handler ->
  unit

(** {1 The daemon} *)

(** [serve ~socket ()] binds, prints nothing, logs on [ssg.server], and
    {b blocks} until a client sends [Shutdown].  Engine sizing options
    are {!Engine.create}'s, the connection limits {!limits}'.
    - [socket]: a {!Ssg_net.Transport} address string ([unix:PATH],
      [tcp:HOST:PORT], or a bare Unix-socket path).
    - [faults] (default {!Faults.off}): chaos mode — the plan is
      consulted before each job execution and each reply frame.
    - [trace] (default [false]): resets and enables the process-wide
      {!Ssg_obs.Tracer} before serving, so engine phases and reply
      writes are recorded; clients pull the buffers with the
      [Trace_pull] request ([ssg trace --remote]).
    - [persist]: a directory for the durable result store
      ({!Ssg_store.Store}) — the cache is pre-warmed from it at boot
      (warm boot) and every fresh outcome is journaled; [persist_sync]
      (default group commit of 8) and [persist_compact_bytes] (default
      4 MiB) are the store's policy knobs.  Without [persist] the
      server is exactly as before: in-memory only.
    - [announce]: a router address ([ssg route]'s socket) to send a
      [Join] carrying this server's canonical bound address once it is
      listening (on a background thread, with connect backoff — the
      router may still be starting), and a best-effort [Leave] at
      shutdown.  This replaces pre-listing the worker in the router's
      [-b] flags; the router admits it, rebuilds the ring, and streams
      hot keys for the ranges it now owns (warm handoff).
    @raise Unix.Unix_error if the address is unusable (e.g. a live
    server already listening).
    @raise Invalid_argument if the address string does not parse, or
    [max_connections < 1], or [max_inflight < 1]. *)
val serve :
  ?workers:int ->
  ?queue_capacity:int ->
  ?cache_capacity:int ->
  ?max_connections:int ->
  ?max_inflight:int ->
  ?read_timeout_s:float ->
  ?drain_timeout_s:float ->
  ?faults:Faults.t ->
  ?trace:bool ->
  ?persist:string ->
  ?persist_sync:Ssg_store.Store.sync_policy ->
  ?persist_compact_bytes:int ->
  ?announce:string ->
  socket:string ->
  unit ->
  unit
