(** Length-prefixed frames and the request-id envelope — the only
    framing in the system.

    The wire unit everywhere is a {e frame}: a 4-byte big-endian payload
    length, then the payload.  Every client, server and test reads and
    writes frames through {!read_fd} / {!write_fd}; {!Ssg_engine.Protocol}
    only encodes payloads.  This module adds the {e multiplexing
    envelope} on top: a payload whose first byte is {!id_magic} carries
    an 8-byte big-endian request id before the inner payload, and a
    connection carrying id-framed requests may answer them {b out of
    order} — each reply repeats the id of the request it answers.

    Two dialects: the magic byte is not the tag of any protocol request,
    so a server classifies each frame independently, and a client that
    never sends the envelope keeps a strict in-order request/reply
    pipeline.  Both stay because they cost differently: the server
    answers a plain request inline on the connection's thread but gives
    each id-framed one a handler thread of its own (see
    {!Ssg_engine.Server}). *)

(** Frames larger than this (16 MiB) are refused by both sides. *)
val max_frame_bytes : int

(** First byte of an id-framed payload. *)
val id_magic : char

(** [with_id ~id payload] wraps [payload] in the envelope.
    @raise Invalid_argument if [id < 0]. *)
val with_id : id:int -> Bytes.t -> Bytes.t

type classified =
  | Plain of Bytes.t  (** not id-framed: the payload itself *)
  | Id of int * Bytes.t  (** id-framed: request id and inner payload *)

(** [classify payload] — {!Id} when the payload starts with {!id_magic}
    (and is long enough to carry the id), {!Plain} otherwise.
    @raise Failure on a payload that starts with the magic byte but is
    too short to carry an id — a truncated envelope, not a plain
    payload. *)
val classify : Bytes.t -> classified

(** {1 Trace-context envelope}

    Same trick as the id envelope, one layer further in: a payload
    whose first byte is {!ctx_magic} carries a fixed {!ctx_len}-byte
    trace context ({!Ssg_obs.Context.to_wire}) before the inner
    payload.  A request without a context simply omits it; when both
    envelopes are present the id envelope is outermost
    ([with_id ~id (with_ctx ~ctx p)]) so reply correlation never
    depends on context awareness.  Replies never carry a context.  The
    blob is opaque to this module — [ssg_net] does not depend on the
    tracer. *)

(** First byte of a context-framed payload. *)
val ctx_magic : char

(** Byte length of the context blob (24). *)
val ctx_len : int

(** [with_ctx ~ctx payload] wraps [payload] in the context envelope.
    @raise Invalid_argument unless [String.length ctx = ctx_len]. *)
val with_ctx : ctx:string -> Bytes.t -> Bytes.t

(** [split_ctx payload] — [(Some ctx, inner)] when the payload starts
    with {!ctx_magic}, [(None, payload)] otherwise.
    @raise Failure on a payload that starts with the magic byte but is
    too short to carry the context. *)
val split_ctx : Bytes.t -> string option * Bytes.t

(** Descriptor framing, shared by every transport (Unix or TCP).
    Readers
    @raise End_of_file on a peer closed at a frame boundary,
    @raise Failure on oversized frames or a peer dying mid-frame,
    @raise Unix.Unix_error as the syscalls do (notably
    [EAGAIN]/[EWOULDBLOCK] when [SO_RCVTIMEO] fires). *)

val read_fd : Unix.file_descr -> Bytes.t

val write_fd : Unix.file_descr -> Bytes.t -> unit
