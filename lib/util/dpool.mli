(** Fixed pool of worker domains for parallel maintenance waves.

    A pool of size [n] owns [n - 1] long-lived worker domains; the caller
    acts as slot 0. {!map} runs an array of jobs across the pool — job [k]
    on slot [k mod n] — and joins before returning, so the caller knows
    every job has finished (and every worker is idle) when it resumes.
    That barrier is what makes the maintenance wave protocol safe: shared
    state touched by jobs needs no synchronization with the caller outside
    the wave.

    Each slot additionally carries its own deterministic {!Prng} stream,
    derived by {!Prng.split_n} from the pool seed — no [Random.State] is
    ever shared across domains. *)

type t

val create : ?seed:int -> domains:int -> unit -> t
(** A pool of [domains] slots ([domains - 1] spawned worker domains; a
    1-domain pool spawns nothing and {!map} degenerates to a sequential
    loop on the caller). [seed] (default 0) roots the per-slot PRNG
    streams.
    @raise Invalid_argument if [domains] is not positive. *)

val size : t -> int
(** Number of slots, including the caller's slot 0. *)

val prng : t -> int -> Prng.t
(** The slot's private deterministic stream.
    @raise Invalid_argument on an out-of-range slot. *)

val map : t -> (int -> 'a) array -> ('a, exn) result array
(** [map t jobs] runs [jobs.(k) k] on slot [k mod size t] and waits for
    all of them. Jobs assigned to the same slot run sequentially in index
    order; slot-0 jobs run on the caller. A raising job yields [Error]
    in its result cell without disturbing the others.
    @raise Invalid_argument if called while the pool is shut down. *)

val shutdown : t -> unit
(** Join and release the worker domains. Idempotent; a pool that spawned
    workers also shuts itself down [at_exit]. *)
