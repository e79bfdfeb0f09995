(** Token-based cache coherence (§5.1): acquire/release as remote
    compare-and-swap on a server-owned token table, with an RPC-based
    variant of the same protocol as the ablation baseline. *)

val default_tokens : int

(** {1 Server side} *)

type manager

val export_tokens : names:Names.Clerk.t -> unit -> manager
(** Export the token table (one word per token, 0 = free). *)

val holder_of : manager -> token:int -> int
(** Current holder id (node address + 1), or 0 when free.
    Test-only: the server's token table, which no report shows. *)

val start_rpc_manager : manager -> Rpckit.Transport.t -> Rpckit.Server.t
(** The RPC token service over the same table. *)

(** {1 Client side} *)

type client

exception Acquire_failed of int

val connect :
  names:Names.Clerk.t -> server:Atm.Addr.t -> unit -> client
(** Also exports this client's revocation segment (one "wanted" word per
    token, written by competitors with notification). *)

val acquire : ?revoke_after:int -> client -> token:int -> unit
(** CAS(0 -> me) with exponential backoff; no server control transfer.
    After [revoke_after] failed attempts, sends the current holder one
    revocation request (§5.1's Calypso-style alternative to spinning).
    Raises {!Acquire_failed} after 64 attempts.
    Test-only ?revoke_after: delayed revocation, which no workload asks for. *)

val release : client -> token:int -> unit
(** CAS(me -> 0); fails loudly if the token is not held by this client. *)

val invariant : manager -> clients:client list -> bool
(** Token-coherence invariant: every token a client holds locally is
    published as held by that client in the server's table.
    Test-only: agreement of every client with the server's table, which no
    report shows. *)

val hold_with_lease : client -> token:int -> lease:Sim.Time.t -> unit
(** Delayed revocation: keep the token for up to [lease], but release as
    soon as a competitor's revocation request arrives.
    Test-only: delayed revocation, which no workload asks for. *)

(** {1 RPC baseline} *)

val rpc_acquire : Rpckit.Transport.t -> server:Atm.Addr.t -> token:int -> unit

val rpc_release : Rpckit.Transport.t -> server:Atm.Addr.t -> token:int -> unit
