(** Provenance manifests: the context needed to regenerate any
    artifact this repository writes (tables under [results/], sweep
    stores, [ckpt trace] and [ckpt explain] outputs).

    A manifest records the git revision ([git describe], "unknown"
    outside a work tree), the exact command line, the OCaml version,
    the effective domain count, every [CKPT_*] environment knob, and
    caller-supplied parameters (scenario settings, seeds). *)

val manifest : ?extra:(string * string) list -> unit -> string
(** The manifest as a JSON document.  [extra] lands under
    ["parameters"]. *)

val sidecar_path : string -> string
(** [sidecar_path p] is [p ^ ".meta.json"]. *)

val write_sidecar : ?extra:(string * string) list -> path:string -> unit -> unit
(** Write the manifest next to [path].  Never raises (a sidecar must
    not break the write of the artifact itself). *)

val domain_count : unit -> int
(** The effective fan-out width: [CKPT_DOMAINS] if valid, else the
    runtime's recommended domain count. *)
