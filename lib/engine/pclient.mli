(** Pipelined client: many in-flight requests on one connection.

    Where {!Client} is one strict request/reply exchange at a time,
    a [Pclient.t] multiplexes: {!submit} returns immediately with a
    ticket, replies correlate back by request id in {e whatever order
    the server finishes them}, and any number of threads may share one
    connection.  A slow job ahead of a fast one does not delay the fast
    one's reply ({!Ssg_net.Mux}).

    Failure semantics are explicit rather than exceptional: {!await}
    returns [Error reason] — a protocol-level error (including lint
    rejections, whose diagnostics ride in the message), a dead
    connection, or an exceeded liveness deadline — so a load generator
    can count failures without exception plumbing.

    Each pipelined request costs the server a handler thread of its own
    (see {!Server}), which is why one-shot exchanges — the router's
    per-job forwards, the CLI — use the synchronous {!Client} instead.
    The two share the connect loop and the typed reply matching. *)

type t

type 'a ticket

(** [connect ~socket ()] — {!Client.dial}: the same address forms,
    retry schedule and jittered backoff as {!Client.connect}.
    [deadline_s] bounds the {e connection's} silence (no reply frame at
    all for that long fails every outstanding ticket), not each
    request.
    @raise Unix.Unix_error when nothing listens after all retries.
    @raise Invalid_argument on a malformed address or parameters. *)
val connect :
  ?retries:int ->
  ?retry_backoff_s:float ->
  ?deadline_s:float ->
  socket:string ->
  unit ->
  t

(** [submit ?ctx t job] — send, do not wait.  The ticket resolves to
    the job's completion, or [Error diagnostics] if the server's lint
    gate rejected it.  [ctx] rides in the context envelope inside the
    id envelope, parenting the server's spans for this request.
    @raise Failure when the connection is already dead. *)
val submit : ?ctx:Ssg_obs.Context.t -> t -> Job.t -> Job.completion ticket

(** [stats t] — asynchronous telemetry snapshot request. *)
val stats : t -> Telemetry.snapshot ticket

(** [metrics_text t] — asynchronous Prometheus-text request. *)
val metrics_text : t -> string ticket

(** [await ticket] blocks until the reply correlates back; repeated
    awaits return the same result. *)
val await : 'a ticket -> ('a, string) result

(** [submit_sync t job] = [await (submit t job)], raising [Failure] on
    [Error] — a drop-in for {!Client.submit} over a shared pipelined
    connection. *)
val submit_sync : t -> Job.t -> Job.completion

(** [shutdown t] asks the server to drain and exit; resolves once
    acknowledged. *)
val shutdown : t -> (unit, string) result

(** [inflight t] — requests sent and not yet answered. *)
val inflight : t -> int

(** [alive t] — false once the connection failed or was closed. *)
val alive : t -> bool

(** [close t] — fail whatever is outstanding, close the descriptor.
    Idempotent. *)
val close : t -> unit
