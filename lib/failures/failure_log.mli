(** Availability-interval failure logs (Section 4.3, "Log-based failure
    distributions").

    A log records, per node, the durations the node stayed up between
    consecutive failures.  The on-disk format accepted here is one
    record per line:

    {v
    <node-id> <availability-duration-seconds>
    v}

    with ['#']-prefixed comment lines ignored.  The LANL logs used by
    the paper (Failure Trace Archive clusters 18 and 19) are in this
    spirit; our synthetic substitute ({!Lanl_synth}) writes the same
    format. *)

type t = {
  intervals : float array;  (** all availability durations, seconds. *)
  nodes : int;  (** number of distinct nodes observed. *)
}

val of_intervals : ?nodes:int -> float array -> t
(** @raise Invalid_argument on empty or non-positive durations. *)

val parse_string : string -> t
(** Parse the textual format above.
    @raise Failure on malformed records, including durations that are
    not positive finite numbers. *)

val load : string -> t
(** [load path] reads and parses a log file. *)

val save : t -> node_of_interval:(int -> int) -> string -> unit
(** [save t ~node_of_interval path] writes the textual format;
    [node_of_interval i] names the node of the [i]-th interval. *)

val to_distribution : t -> Ckpt_distributions.Distribution.t
(** The empirical distribution of the availability durations — exactly
    the estimator of Section 4.3. *)

val mean_interval : t -> float
val count : t -> int
