(** Persisting trace sets.

    The paper publishes its failure traces alongside the simulator;
    this module does the same for ours: a plain-text format (stable,
    diff-able, readable by any tool) round-tripping a {!Trace_set}.

    {v
    # ckpt-traces v1 units=<n> horizon=<seconds>
    <unit-index> <failure-date-seconds>
    ...
    v}

    Units with no failures simply have no records; the header carries
    the unit count. *)

val save : Trace_set.t -> string -> unit
(** [save traces path] writes the textual format. *)

val to_string : Trace_set.t -> string

val load : string -> Trace_set.t
(** [load path] parses a file written by {!save}.
    @raise Failure on malformed input: a bad header, a horizon that is
    not a positive finite number, a date that is not finite or lies
    outside [\[0, horizon)], or a unit's dates out of order. *)

val of_string : string -> Trace_set.t
